"""Spans around the calls into each layer of the RMA system.

The traced run wraps the public functions of each module of ``repro``
(the module attribute, plus every other name the same function is bound
to) so that each call records a span: its name, start, end and parent,
and the Spark job counter at both ends. Spans are kept in memory; the
run writes them out when it ends. Nothing in ``repro`` is edited: the
wrappers are installed by :func:`install` and removed by the function it
returns.

A span's *self time* is its duration minus the durations of its children
and minus the tracer's own bookkeeping inside it (reading the job
counter), which is reported apart, so that the self times of all spans
of a pass plus the bookkeeping add up to the traced pass time.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np
import pandas as pd


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    jobs0: int = 0  # first Spark job id that may belong to the span
    jobs1: int = 0  # first Spark job id after the span
    book0: float = 0.0  # tracer bookkeeping seconds before the span started
    book1: float = 0.0  # ... and when it ended
    attrs: dict[str, Any] = field(default_factory=dict)


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    def span(self, name: str, **attrs):
        return nullcontext()


class Tracer:
    """Records spans and Spark job ids at each span boundary."""

    def __init__(self, sc) -> None:
        self._status = sc.statusTracker()
        # Both are private[spark] in Scala and public in the bytecode. The
        # scheduler's job counter is exact at a boundary without waiting for
        # the listener bus; the bus is drained once per pass, before the
        # status tracker is asked about the jobs' stages and tasks.
        self._scheduler = sc._jsc.sc().dagScheduler()
        self._bus = sc._jsc.sc().listenerBus()
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.book = 0.0

    def job_mark(self) -> int:
        """Id the next Spark job will get (ids are sequential from 0)."""
        return self._scheduler.nextJobId()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        b = time.perf_counter()
        s = Span(name, self._stack[-1] if self._stack else None, jobs0=self.job_mark(), attrs=attrs)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        self.book += s.start - b
        s.book0 = self.book
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.book1 = self.book
            self._stack.pop()
            s.jobs1 = self.job_mark()
            self.book += time.perf_counter() - s.end

    def jobs(self, first: int, stop: int) -> dict[int, dict[str, int]]:
        """Stages of jobs ``first..stop-1``: stage id → tasks, completed tasks, job."""
        self._bus.waitUntilEmpty()
        stages: dict[int, dict[str, int]] = {}
        for jid in range(first, stop):
            info = self._status.getJobInfo(jid)
            for sid in info.stageIds if info else ():
                st = self._status.getStageInfo(sid)
                if st is not None and sid not in stages:  # a stage runs in the first job listing it
                    stages[sid] = {"tasks": st.numTasks, "done": st.numCompletedTasks, "job": jid}
        return stages


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: duration minus children and nested bookkeeping."""
    child_dur = [0.0] * len(spans)
    child_book = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_dur[s.parent] += s.end - s.start
            child_book[s.parent] += s.book1 - s.book0
    return [
        (s.end - s.start) - child_dur[i] - ((s.book1 - s.book0) - child_book[i])
        for i, s in enumerate(spans)
    ]


# --- per-layer metrics -----------------------------------------------------

#: span name → self-time metric
SELF_TIME = {
    "ops.validate": "ops.validate_s",
    "constructors.split_sorted": "constructors.split_sorted_s",
    "constructors.column_cast": "constructors.column_cast_s",
    "constructors.relation_constructor": "constructors.relation_constructor_s",
    "matrix_ops.kernel": "matrix_ops.kernel_s",
    "distributed.gram": "distributed.gram_s",
    "distributed.zip_linear": "distributed.zip_linear_s",
    "workloads.ols": "workloads.ols_s",
    "workloads.covariance_via_cpd": "workloads.covariance_via_cpd_s",
    "sqlext.rma_sql": "sqlext.rma_sql_self_s",
    "evaluate": "evaluate.s",
    "bench.query": "bench.glue_s",
}
#: span name → metric counting the Spark jobs the span launched
JOBS = {"ops.validate": "ops.validate_jobs", "distributed.gram": "distributed.gram_jobs",
        "evaluate": "evaluate.jobs"}
#: span name → metric of the whole span, children included
TOTAL = {"workloads.ols": "workloads.ols_total_s",
         "workloads.covariance_via_cpd": "workloads.covariance_via_cpd_total_s"}
#: span attribute → metric summing it
ATTRS = {
    ("constructors.split_sorted", "rows"): "constructors.collected_rows",
    ("constructors.split_sorted", "bytes"): "constructors.collected_bytes",
    ("constructors.relation_constructor", "bytes"): "constructors.rebuilt_bytes",
    ("matrix_ops.kernel", "flops"): "matrix_ops.flops",
}
PASS_METRICS = [
    "ops.self_s", *SELF_TIME.values(), *JOBS.values(), *TOTAL.values(), *ATTRS.values(),
    "evaluate.single_task_stages", "spark.jobs", "spark.stages", "spark.tasks",
    "trace.pass_s", "trace.bookkeeping_s", "trace.unaccounted_s",
]


def pass_metrics(tracer: Tracer, first: int, pass_s: float, book: float) -> dict[str, float]:
    """Per-layer metrics of one pass: the spans ``tracer.spans[first:]``.

    ``pass_s`` is the traced pass time and ``book`` the tracer bookkeeping
    seconds spent in it.
    """
    spans = tracer.spans[first:]
    selfs = self_times(tracer.spans)[first:]
    out = dict.fromkeys(PASS_METRICS, 0.0)
    for s, own in zip(spans, selfs):
        if s.name in SELF_TIME:
            out[SELF_TIME[s.name]] += own
        elif s.name.startswith("ops."):
            out["ops.self_s"] += own
        if s.name in JOBS:
            out[JOBS[s.name]] += s.jobs1 - s.jobs0
        if s.name in TOTAL:
            out[TOTAL[s.name]] += s.end - s.start
        for (name, attr), metric in ATTRS.items():
            if s.name == name:
                out[metric] += s.attrs.get(attr, 0)
    stop = max(s.jobs1 for s in spans)
    stages = tracer.jobs(spans[0].jobs0, stop)
    out["spark.jobs"] = stop - spans[0].jobs0
    out["spark.stages"] = sum(1 for st in stages.values() if st["done"])
    out["spark.tasks"] = sum(st["done"] for st in stages.values())
    evaluate_jobs = {j for s in spans if s.name == "evaluate" for j in range(s.jobs0, s.jobs1)}
    out["evaluate.single_task_stages"] = sum(
        1 for st in stages.values() if st["job"] in evaluate_jobs and st["tasks"] == 1 and st["done"]
    )
    out["trace.pass_s"] = pass_s
    out["trace.bookkeeping_s"] = book
    out["trace.unaccounted_s"] = pass_s - sum(selfs) - book
    return out


# --- wrappers ----------------------------------------------------------------

def _nbytes(part) -> int:
    if isinstance(part, pd.DataFrame):
        return int(part.memory_usage(index=False, deep=True).sum())
    return int(np.asarray(part).nbytes)


def _split_attrs(args, out) -> dict[str, int]:
    order_part, m = out
    return {"rows": len(order_part), "bytes": _nbytes(order_part) + m.nbytes}


def _rebuild_attrs(args, out) -> dict[str, int]:
    return {"bytes": sum(_nbytes(p) for p in args[1])}


def kernel_flops(op: str, *mats: np.ndarray) -> float:
    """Floating-point operation count of a base operation, from its dimensions.

    Textbook counts (Golub & Van Loan): Householder QR with Q formed, LU
    for ``inv``/``det``, Golub-Kahan SVD with both vector sets; element-wise
    ops count one per result cell, ``tra`` none.
    """
    r, c = mats[0].shape
    if op in ("qqr", "rqr"):
        return 4.0 * r * c * c - 4.0 * c**3 / 3
    if op in ("dsv", "usv", "vsv"):
        return 4.0 * r * r * c + 8.0 * r * c * c + 9.0 * c**3
    if op == "rnk":
        return 4.0 * r * c * c - 4.0 * c**3 / 3
    if op == "inv":
        return 2.0 * c**3
    if op == "det":
        return 2.0 * c**3 / 3
    if op == "chf":
        return c**3 / 3
    if op in ("evc", "evl"):
        return 25.0 * c**3
    if op in ("add", "sub", "emu"):
        return float(r * c)
    if op in ("cpd", "mmu"):
        k = mats[1].shape[1]
        inner = r if op == "cpd" else c
        outer = c if op == "cpd" else r
        return 2.0 * inner * outer * k
    if op == "opd":
        return 2.0 * r * mats[1].shape[0] * c
    if op == "sol":
        return 2.0 * r * c * c - 2.0 * c**3 / 3
    return 0.0  # tra


def _wrap(tracer: Tracer, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as s:
            out = fn(*args, **kwargs)
            if attrs is not None:
                s.attrs.update(attrs(args, out))
        return out

    return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the calls into each layer; return the function that unwraps them."""
    import repro.sqlext
    import repro.workloads
    from repro.core import constructors, distributed, matrix_ops, ops
    from repro.sqlext import parser

    # the package re-exports a function named ``covariance``, which hides the module
    covariance = importlib.import_module("repro.workloads.covariance")
    regression = importlib.import_module("repro.workloads.regression")

    undo: list[Callable[[], None]] = []

    def rebind(places: list, key: str, wrapped: Callable) -> None:
        """Point ``key`` at ``wrapped`` in each module (setattr) or dict (setitem)."""
        for place in places:
            if isinstance(place, dict):
                old = place[key]
                place[key] = wrapped
                undo.append(lambda p=place, o=old: p.__setitem__(key, o))
            else:
                old = getattr(place, key)
                setattr(place, key, wrapped)
                undo.append(lambda p=place, o=old: setattr(p, key, o))

    for op in [*ops.UNARY_OPS, *ops.BINARY_OPS]:
        table = ops.UNARY_OPS if op in ops.UNARY_OPS else ops.BINARY_OPS
        rebind([ops, table], op, _wrap(tracer, f"ops.{op}", getattr(ops, op)))
    for fn in ("_check_relation", "_check_counts"):
        rebind([ops], fn, _wrap(tracer, "ops.validate", getattr(ops, fn)))
    for fn, attrs in (("split_sorted", _split_attrs), ("column_cast", None),
                      ("relation_constructor", _rebuild_attrs)):
        rebind([constructors, ops], fn, _wrap(tracer, f"constructors.{fn}", getattr(constructors, fn), attrs))
    for table in (matrix_ops.UNARY, matrix_ops.BINARY):
        for op, fn in list(table.items()):
            flops = lambda args, out, op=op: {"flops": kernel_flops(op, *args)}  # noqa: E731
            rebind([table], op, _wrap(tracer, "matrix_ops.kernel", fn, flops))
    for fn in ("gram", "zip_linear"):
        rebind([distributed], fn, _wrap(tracer, f"distributed.{fn}", getattr(distributed, fn)))
    rebind([regression, repro.workloads], "ols", _wrap(tracer, "workloads.ols", regression.ols))
    rebind([covariance, repro.workloads], "covariance_via_cpd",
           _wrap(tracer, "workloads.covariance_via_cpd", covariance.covariance_via_cpd))
    rebind([parser, repro.sqlext], "rma_sql", _wrap(tracer, "sqlext.rma_sql", parser.rma_sql))

    def uninstall() -> None:
        for restore in reversed(undo):
            restore()

    return uninstall
