"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository::

    python -m pytest rmabench -q -p no:cacheprovider

Every check must pass on the program's own results, except the known
fault (``ols`` with over 100 regressors), and must reject the same
results after the test perturbs them: a value changed, or two origins
(keys or ``C`` labels) swapped. The program itself is never modified.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from rmabench import run

run.locate_program()

from pyspark.sql import functions as F  # noqa: E402

from rmabench import checks, inputs, spans, suite  # noqa: E402

TINY = inputs.Sizes(tall_rows=300, tall_cols=5, square_n=12, reg_rows=200, reg_cols=3,
                    wide_reg_rows=300, wide_reg_cols=101, zip_rows=200, zip_cols=3)
SEED = 7


@pytest.fixture(scope="module")
def bench_spark():
    run.configure_spark_env()
    spark = run.start_spark()
    yield spark
    run.stop_spark(spark)


@pytest.fixture(scope="module")
def built(bench_spark):
    """Every workload at tiny sizes, built once, with its queries by name."""
    out = {}
    for name, cls in suite.WORKLOADS.items():
        wl = cls(SEED, TINY)
        wl.build(bench_spark)
        out[name] = (wl, {q.name: q for q in wl.queries()})
    yield out
    for wl, _ in out.values():
        wl.release()


def _queries(built, *, known_fault: bool):
    return [(wl.name, q) for wl, qs in built.values() for q in qs.values()
            if (q.known_fault is not None) == known_fault]


def test_program_passes_every_check_but_the_known_fault(built):
    for wl_name, q in _queries(built, known_fault=False):
        _, error = suite.run_query(q)
        assert error is None, f"{wl_name}/{q.name}: {error}"
    faults = _queries(built, known_fault=True)
    assert [q.name for _, q in faults] == ["ols-wide"]
    _, error = suite.run_query(faults[0][1])
    assert error is not None and "lstsq" in error


def _numeric_cols(pdf: pd.DataFrame) -> list[str]:
    return [c for c in pdf.columns if c not in ("id", "C") and pd.api.types.is_float_dtype(pdf[c])]


def _changed_value(pdf: pd.DataFrame) -> pd.DataFrame:
    out = pdf.copy()
    col = _numeric_cols(out)[-1]
    scale = float(np.abs(out[_numeric_cols(out)].to_numpy()).max()) + 1.0
    out.loc[out.index[-1], col] += 1e-3 * scale
    return out


def _swapped_origins(pdf: pd.DataFrame) -> pd.DataFrame:
    out = pdf.copy()
    origin = "id" if "id" in out.columns else "C"
    a, b = out.index[0], out.index[1]
    out.loc[[a, b], origin] = out.loc[[b, a], origin].to_numpy()
    return out


def test_checks_reject_perturbed_collected_results(built):
    for wl_name, q in _queries(built, known_fault=False):
        if wl_name == "linear-zip":
            continue  # aggregates; see the next test
        result = q.run(spans.NullTracer())
        q.check(result)
        perturbed = [_changed_value(result)]
        if len(result) > 1:
            perturbed.append(_swapped_origins(result))
        else:  # det: one tuple, so relabel it instead
            perturbed.append(result.assign(C="rnk"))
        for bad in perturbed:
            with pytest.raises(checks.CheckFailed):
                q.check(bad)


def test_checks_reject_perturbed_aggregates(built):
    wl, qs = built["linear-zip"]
    for op, align, select in wl.CALLS:
        q = qs[f"{op}-{align}" + ("-select" if select else "")]
        df = wl.result(op, align, select)
        tr = spans.NullTracer()
        q.check(wl.force(tr, df))
        a, b = (row.id for row in df.select("id").orderBy("id").limit(2).collect())
        bumped = df.withColumn("a1", F.when(F.col("id") == a, F.col("a1") * 1.001).otherwise(F.col("a1")))
        relabelled = df.withColumn(  # two keys swapped, so their values are mispaired
            "id", F.when(F.col("id") == a, b).when(F.col("id") == b, a).otherwise(F.col("id")))
        dropped = df.filter(F.col("id") != a)
        for bad in (bumped, relabelled, dropped):
            with pytest.raises(checks.CheckFailed):
                q.check(wl.force(tr, bad))


def test_traced_self_times_account_for_the_pass(built, bench_spark):
    tracer = spans.Tracer(bench_spark.sparkContext)
    from repro.core import ops

    original = ops.qqr
    for name, (wl, qs) in built.items():
        first, book = len(tracer.spans), tracer.book
        uninstall = spans.install(tracer)
        try:
            pass_s = sum(suite.run_query(q, tracer)[0] for q in qs.values())
        finally:
            uninstall()
        m = spans.pass_metrics(tracer, first, pass_s, tracer.book - book)
        assert abs(m["trace.unaccounted_s"]) < 0.01 * pass_s, name
        assert m["spark.jobs"] > 0 and m["evaluate.jobs"] > 0 and m["ops.validate_jobs"] > 0
        if name == "tall-qr":
            assert m["constructors.collected_rows"] == 2 * TINY.tall_rows
            assert m["matrix_ops.flops"] > 0 and m["distributed.gram_jobs"] == 0
        if name == "square-wide":
            assert m["constructors.column_cast_s"] > 0 and m["sqlext.rma_sql_self_s"] > 0
        if name == "gram-regression":
            assert m["distributed.gram_jobs"] > 0 and m["workloads.ols_total_s"] > 0
        if name == "linear-zip":
            assert m["distributed.zip_linear_s"] > 0 and m["constructors.collected_rows"] == 0
    assert ops.qqr is original


def test_self_times_subtract_children_and_bookkeeping():
    root = spans.Span("bench.query", None, start=0.0, end=10.0, book0=0.0, book1=1.5)
    child = spans.Span("ops.qqr", 0, start=1.0, end=7.0, book0=0.5, book1=1.0)
    leaf = spans.Span("evaluate", 1, start=2.0, end=4.0, book0=0.5, book1=0.5)
    assert spans.self_times([root, child, leaf]) == [10 - 6 - 1.0, 6 - 2 - 0.5, 2.0]


def test_kernel_flops():
    a = np.zeros((100, 10))
    assert spans.kernel_flops("qqr", a) == 4 * 100 * 100 - 4 * 1000 / 3
    assert spans.kernel_flops("cpd", a, np.zeros((100, 3))) == 2 * 100 * 10 * 3
    assert spans.kernel_flops("tra", a) == 0


def test_inputs_depend_only_on_the_seed():
    a, b = inputs.tall(3, 50, 4), inputs.tall(3, 50, 4)
    pd.testing.assert_frame_equal(a, b)
    assert not inputs.tall(4, 50, 4).equals(a)
    assert sorted(a["id"]) == list(range(1, 51)) and list(a["id"]) != sorted(a["id"])
    sign, logabs = np.linalg.slogdet(inputs.sorted_values(inputs.square(3, inputs.FULL.square_n), "id"))
    assert sign != 0 and np.isfinite(logabs)


def test_refuses_to_run_without_the_program(tmp_path: Path):
    bench = tmp_path / "rmabench"
    bench.mkdir()
    for f in Path(run.__file__).parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "rmabench/run.py", "--workload", "tall-qr", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
