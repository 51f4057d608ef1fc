"""Benchmark of relational matrix operations, end to end and per layer.

Run from the root of the repository::

    python3 rmabench/run.py --workload tall-qr --seed 1 --seconds 3 --trace 0
    python3 rmabench/run.py --workload all --seed 1 --seconds 3 --trace 0

One process runs one workload as a closed loop: set up (Spark session,
seeded inputs, cached relations, one warm-up pass), then whole passes of
the workload's queries until ``--seconds`` have passed. Every query is
checked against numpy/LAPACK. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints
the per-layer metrics. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--workload all``
runs every workload in its own process and sums their counts.

The run writes its environment, pass times, failures and (traced) spans
to ``.bench_build/rmabench/`` and nothing outside the repository.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "rmabench"
#: the workloads of BENCHMARK.json, which ``--workload all`` runs
WORKLOAD_NAMES = ["tall-qr", "square-wide", "gram-regression"]
#: runnable by name but outside BENCHMARK.json (see README.md)
EXTRA_WORKLOADS = ["linear-zip"]

#: Spark set-up of every run; recorded with the results.
CORES = min(2, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = "16"
#: input builds per run; setup_s takes their median
BUILDS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, *EXTRA_WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed part")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def locate_program() -> None:
    """Put the repository's ``src`` first on the path, or exit if it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "core" / "ops.py").is_file():
        sys.exit(f"rmabench: no RMA program under {src}; run from a checkout of the repository")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"rmabench: imported repro from {repro.__file__}, not from {src}")


def configure_spark_env() -> None:
    """Spark and temporary files stay under :data:`WORK`; set before pyspark starts."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    # every JVM the launch starts (launcher and driver): no /tmp perf data
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    confs = ["spark.driver.host=127.0.0.1", "spark.ui.enabled=false",
             "spark.ui.showConsoleProgress=false"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [f"--master local[{CORES}] --driver-memory {DRIVER_MEMORY}",
         *(f"--conf {shlex.quote(c)}" for c in confs), "pyspark-shell"]
    )


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("rmabench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF of its stdin
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def environment(spark, seed: int) -> dict:
    import numpy as np
    import pandas as pd
    import pyarrow
    import pyspark

    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False).stdout.strip() or rev
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    conf = spark.sparkContext.getConf()
    return {
        "git_rev": rev,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "spark_master": spark.sparkContext.master,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "driver_memory": conf.get("spark.driver.memory"),
        "blas": {"name": blas.get("name"), "config": blas.get("openblas configuration"),
                 **{v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "versions": {"spark": spark.version, "pyspark": pyspark.__version__, "numpy": np.__version__,
                     "pandas": pd.__version__, "pyarrow": pyarrow.__version__,
                     "python": platform.python_version()},
    }


class RssPeak:
    """Peak resident memory of this process, sampled from /proc while active."""

    PAGE = os.sysconf("SC_PAGE_SIZE")

    def __init__(self, interval: float = 0.005) -> None:
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        with open("/proc/self/statm", "rb") as f:
            while True:
                f.seek(0)
                self.peak = max(self.peak, int(f.read().split()[1]) * self.PAGE)
                if self._stop.wait(self.interval):
                    return

    def __enter__(self) -> "RssPeak":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def run_pass(queries, tracer, failures: dict, per_query: dict) -> float:
    """One pass: every query once. Returns the summed timed seconds."""
    from rmabench.suite import run_query

    total = 0.0
    for q in queries:
        seconds, error = run_query(q, tracer)
        total += seconds
        per_query.setdefault(q.name, []).append(seconds)
        if error is not None:
            failures.setdefault(q.name, {"count": 0, "error": error, "known_fault": q.known_fault})
            failures[q.name]["count"] += 1
    return total


def run_workload(args: argparse.Namespace) -> dict:
    locate_program()
    configure_spark_env()
    spark = start_spark()
    try:
        return measure(spark, args)
    finally:
        stop_spark(spark)


def measure(spark, args: argparse.Namespace) -> dict:
    from rmabench import inputs, spans
    from rmabench.suite import WORKLOADS

    session_s = time.perf_counter() - _T0
    t = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed, inputs.FULL)
    twins_s = time.perf_counter() - t
    builds = []
    for _ in range(BUILDS):
        t = time.perf_counter()
        wl.build(spark)
        builds.append(time.perf_counter() - t)
    queries = wl.queries()
    warmup_queries, per_query = {}, {}
    t = time.perf_counter()
    # a traced run compares traced with untraced passes, so it warms up longer
    # to keep the early speed-up of the JIT out of trace.overhead_s
    for _ in range(wl.warmup_passes + args.trace):
        run_pass(queries, spans.NullTracer(), {}, warmup_queries)
    warmup_s = time.perf_counter() - t
    setup_s = session_s + twins_s + statistics.median(builds) + warmup_s

    tracer = spans.Tracer(spark.sparkContext) if args.trace else None
    plain, traced, layer_rows, failures = [], [], [], {}
    with RssPeak() as rss:
        start = time.perf_counter()
        while True:
            # the traced run alternates untraced and traced passes
            if tracer is not None and len(traced) < len(plain):
                first, book = len(tracer.spans), tracer.book
                uninstall = spans.install(tracer)
                try:
                    seconds = run_pass(queries, tracer, failures, per_query)
                finally:
                    uninstall()
                traced.append(seconds)
                layer_rows.append(spans.pass_metrics(tracer, first, seconds, tracer.book - book))
            else:
                plain.append(run_pass(queries, spans.NullTracer(), failures, per_query))
            done = time.perf_counter() - start >= args.seconds and len(plain) >= wl.min_passes
            if done and (tracer is None or len(traced) == len(plain)):
                break
    wl.release()

    passes = len(plain) + len(traced)
    cells = sum(q.cells for q in queries)
    unexpected = {k: v for k, v in failures.items() if v["known_fault"] is None}
    result = {
        "correct": not unexpected,
        "attempted": passes * len(queries),
        "failed": sum(v["count"] for v in failures.values()),
    }
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (statistics.median(plain), "s"),
            "cells_per_s": (cells * len(plain) / sum(plain), "cells/s"),
            "driver_rss_peak_mb": (rss.peak / 1e6, "MB"),
        }
    else:
        metrics = {name: (statistics.median(row[name] for row in layer_rows), unit_of(name))
                   for name in spans.PASS_METRICS}
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "env": environment(spark, args.seed),
        "setup": {"session_s": session_s, "twins_s": twins_s, "builds_s": builds, "warmup_s": warmup_s},
        "warmup_query_s": warmup_queries, "query_s": per_query, "pass_s": plain, "traced_pass_s": traced,
        "failures": failures, "layers": layer_rows, "result": result,
        "spans": [vars(s) for s in tracer.spans] if tracer else [],
    }
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print("env " + json.dumps(record["env"]))
    for name, f in failures.items():
        kind = "known fault" if f["known_fault"] else "UNEXPECTED"
        print(f"failed {args.workload}/{name} x{f['count']} ({kind}): {f['error'].strip().splitlines()[-1]}")
    return result


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric == "evaluate.s":
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("flops"):
        return "flop"
    return "count"


def run_all(args: argparse.Namespace) -> dict:
    """Every workload in its own process; counts summed, metrics prefixed."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"rmabench: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    return total


def print_summary(name: str, res: dict) -> None:
    print(f"== {name}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
    for metric, v in res["metrics"].items():
        print(f"   {metric:40s} {v['value']:>16.6g} {v['unit']}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
        print_summary(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
