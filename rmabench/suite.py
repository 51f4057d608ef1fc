"""The four workloads: seeded inputs, their Spark relations and one pass of queries.

A workload is built in three steps. The constructor generates the
pandas twins from the seed and computes every reference with
numpy/LAPACK. :meth:`Workload.build` turns the twins into cached Spark
relations (it may be called again; each call replaces the relations).
:meth:`Workload.queries` lists the pass: each :class:`Query` issues RMA
calls through the public surface (``repro.core.ops``,
``repro.workloads``, ``repro.sqlext.rma_sql``), forces full evaluation
of every result column, and returns what it forced for the check.

The program is called only through module attributes looked up at call
time, so that the wrappers of :mod:`spans` see every call.
"""
from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

import repro.sqlext
import repro.workloads
from repro.core import ops

from rmabench import checks, inputs
from rmabench.spans import NullTracer

#: Table 7's selection after the key-aligned ``add``: ``a0 + b0 > 10⁴``.
SELECT_THRESHOLD = 1e4


@dataclass
class Query:
    """One operation of a pass: ``run`` issues and forces it, ``check`` judges it."""

    name: str
    cells: int  # input application cells, summed over the arguments
    run: Callable[[object], object]  # tracer → forced result
    check: Callable[[object], None]
    #: the fault that makes this operation fail on today's program, if any
    known_fault: str | None = None


def collect(tracer, df: DataFrame) -> pd.DataFrame:
    """Force every column of ``df`` by collecting it (results that fit the driver)."""
    with tracer.span("evaluate"):
        return df.toPandas()


def aggregate(tracer, df: DataFrame, key: str, key2: str, cols: list[str]) -> dict[str, float]:
    """Force every column of ``df`` in Catalyst; only one row reaches the driver.

    Per column: its sum, and its sum weighted by ``key`` (which catches a
    value paired with the wrong row); plus the row count and Σ|key − key2|.
    """
    aggs = [F.count(F.lit(1)).alias("n"), F.sum(F.abs(F.col(key) - F.col(key2))).alias("keydiff")]
    for c in cols:
        aggs += [F.sum(c).alias(f"s_{c}"), F.sum(F.col(c) * F.col(key)).alias(f"w_{c}")]
    with tracer.span("evaluate"):
        row = df.agg(*aggs).collect()[0]
    return {k: (0 if v is None else v) for k, v in row.asDict().items()}


def zip_reference(res: np.ndarray, keys: np.ndarray, cols: list[str]) -> tuple[dict, dict]:
    """The :func:`aggregate` row of a result matrix, and Σ|terms| of each sum."""
    ref: dict[str, float] = {"n": len(keys), "keydiff": 0}
    scale: dict[str, float] = {}
    for j, c in enumerate(cols):
        col, weighted = res[:, j], res[:, j] * keys
        ref[f"s_{c}"], scale[f"s_{c}"] = float(col.sum()), float(np.abs(col).sum())
        ref[f"w_{c}"], scale[f"w_{c}"] = float(weighted.sum()), float(np.abs(weighted).sum())
    return ref, scale


class Workload:
    """Base: seeded twins in the subclass's ``__init__(seed, sizes)``, cached
    relations in :meth:`build`."""

    name = ""
    #: untimed passes before the timed ones; they count toward setup_s
    warmup_passes = 1
    #: timed passes a run makes at least, however short ``--seconds`` is, so
    #: that every run takes the median over the same number of passes
    min_passes = 1

    def __init__(self, sizes: inputs.Sizes) -> None:
        self.sizes = sizes
        self.twins: dict[str, pd.DataFrame] = {}
        self.rel: dict[str, DataFrame] = {}
        self.spark: SparkSession | None = None

    def build(self, spark: SparkSession) -> None:
        """(Re)create every input relation from its twin, cached and counted."""
        self.release()
        self.spark = spark
        for name, pdf in self.twins.items():
            df = spark.createDataFrame(pdf).cache()
            df.count()
            self.rel[name] = df

    def release(self) -> None:
        for df in self.rel.values():
            df.unpersist()
        self.rel = {}

    def queries(self) -> list[Query]:
        raise NotImplementedError


class TallQR(Workload):
    """``qqr`` and ``rqr`` (``auto`` → LAPACK) on a cached tall, narrow relation."""

    name = "tall-qr"
    min_passes = 3  # the JIT still speeds up the first timed pass; the median drops it

    def __init__(self, seed: int, sizes: inputs.Sizes) -> None:
        super().__init__(sizes)
        pdf = inputs.tall(seed, sizes.tall_rows, sizes.tall_cols)
        self.twins["a"] = pdf
        self.app = [c for c in pdf.columns if c != "id"]
        self.keys = np.sort(pdf["id"].to_numpy())
        self.a = inputs.sorted_values(pdf, "id")
        self.r_ref = checks.canonical_r(self.a)

    def queries(self) -> list[Query]:
        cells = self.a.size
        return [
            Query("qqr", cells, lambda tr: collect(tr, ops.qqr(self.rel["a"], "id")),
                  lambda q: checks.qqr(q, self.app, self.a, self.keys, self.r_ref)),
            Query("rqr", cells, lambda tr: collect(tr, ops.rqr(self.rel["a"], "id")),
                  lambda r: checks.rqr(r, self.app, self.r_ref)),
        ]


class SquareWide(Workload):
    """``inv`` (through ``rma_sql``), ``dsv``, ``tra`` and ``det`` on a square relation."""

    name = "square-wide"
    min_passes = 2
    VIEW = "rmabench_square"

    def __init__(self, seed: int, sizes: inputs.Sizes) -> None:
        super().__init__(sizes)
        pdf = inputs.square(seed, sizes.square_n)
        self.twins["a"] = pdf
        self.app = [c for c in pdf.columns if c != "id"]
        self.keys = np.sort(pdf["id"].to_numpy())
        self.a = inputs.sorted_values(pdf, "id")
        self.s_ref = np.linalg.svd(self.a, compute_uv=False)
        self.sign_ref, self.logabs_ref = np.linalg.slogdet(self.a)

    def build(self, spark: SparkSession) -> None:
        super().build(spark)
        self.rel["a"].createOrReplaceTempView(self.VIEW)

    def queries(self) -> list[Query]:
        cells = self.a.size
        sql = f"SELECT * FROM INV({self.VIEW} BY id)"
        return [
            Query("inv-sql", cells, lambda tr: collect(tr, repro.sqlext.rma_sql(self.spark, sql)),
                  lambda x: checks.inv(x, self.app, self.a, self.keys)),
            Query("dsv", cells, lambda tr: collect(tr, ops.dsv(self.rel["a"], "id")),
                  lambda d: checks.dsv(d, self.app, self.s_ref)),
            Query("tra", cells, lambda tr: collect(tr, ops.tra(self.rel["a"], "id")),
                  lambda t: checks.tra(t, self.app, self.a, self.keys)),
            Query("det", cells, lambda tr: collect(tr, ops.det(self.rel["a"], "id")),
                  lambda d: checks.det(d, self.sign_ref, self.logabs_ref)),
        ]


def _lstsq(pdf: pd.DataFrame, names: list[str]) -> np.ndarray:
    """OLS coefficients of ``y`` on ``names`` plus an intercept (last)."""
    x = pdf[names].to_numpy(dtype=np.float64)
    design = np.column_stack([x, np.ones(len(pdf))])
    return np.linalg.lstsq(design, pdf["y"].to_numpy(), rcond=None)[0]


class GramRegression(Workload):
    """§8.6 ``ols``, §5 ``covariance_via_cpd`` and a self-``cpd``, all with defaults.

    The pass also holds ``ols`` with over 100 regressors on inputs that do
    not depend on the seed; it fails on today's program (see ``known_fault``).
    """

    name = "gram-regression"
    # A pass is about 150 Spark jobs: 25 s cold, 13-17 s warm. A warm-up pass
    # would not fit the run budget of BENCHMARK.json, so the one timed pass
    # is the first, and pass_s includes the JIT warming up.
    warmup_passes = 0
    WIDE_FAULT = (
        "workloads.regression.ols renames regressors x{i:02d}; past x99 the names "
        "stop sorting in position order, so inv pairs Gram rows with the wrong columns"
    )

    def __init__(self, seed: int, sizes: inputs.Sizes) -> None:
        super().__init__(sizes)
        pdf, self.names = inputs.regression(seed, sizes.reg_rows, sizes.reg_cols)
        wide, self.wide_names = inputs.wide_regression(sizes.wide_reg_rows, sizes.wide_reg_cols)
        self.twins["data"] = pdf
        self.twins["wide"] = wide
        self.beta_ref = _lstsq(pdf, self.names)
        self.wide_beta_ref = _lstsq(wide, self.wide_names)
        x = pdf.sort_values("id")[self.names].to_numpy(dtype=np.float64)
        self.cov_ref = np.cov(x, rowvar=False)
        self.gram_ref = x.T @ x
        self.x_cells = x.size

    def build(self, spark: SparkSession) -> None:
        super().build(spark)
        # one object for both arguments: the self cross product is what
        # ``cpd``'s ``auto`` policy sends to the distributed Gram
        self.rel["x"] = self.rel["data"].select("id", *self.names)

    def queries(self) -> list[Query]:
        coef = [*self.names, "intercept"]
        wide_coef = [*self.wide_names, "intercept"]
        wide = self.twins["wide"]
        return [
            Query("ols", self.x_cells + self.sizes.reg_rows,
                  lambda tr: collect(tr, repro.workloads.ols(self.rel["data"], "id", self.names, "y")),
                  lambda b: checks.coefficients(b, "y", coef, self.beta_ref)),
            Query("covariance", self.x_cells,
                  lambda tr: collect(tr, repro.workloads.covariance_via_cpd(self.rel["x"], "id")),
                  lambda c: checks.gram_matrix(c, self.names, self.cov_ref, "covariance vs np.cov")),
            Query("self-cpd", 2 * self.x_cells,
                  lambda tr: collect(tr, ops.cpd(self.rel["x"], self.rel["x"], "id", "id")),
                  lambda g: checks.gram_matrix(g, self.names, self.gram_ref, "cpd vs XᵀX")),
            Query("ols-wide", wide.shape[0] * (wide.shape[1] - 1),
                  lambda tr: collect(tr, repro.workloads.ols(self.rel["wide"], "id", self.wide_names, "y")),
                  lambda b: checks.coefficients(b, "y", wide_coef, self.wide_beta_ref),
                  known_fault=self.WIDE_FAULT),
        ]


_LINEAR = {"add": np.add, "sub": np.subtract, "emu": np.multiply}


class LinearZip(Workload):
    """``add``/``sub``/``emu`` of two cached relations, by position and by key.

    Everything stays in Catalyst: each result is forced by one aggregate.
    The key-aligned ``add`` is followed by Table 7's selection.
    """

    name = "linear-zip"
    CALLS = [("add", "position", False), ("sub", "position", False), ("emu", "position", False),
             ("add", "keys", True), ("sub", "keys", False), ("emu", "keys", False)]

    def __init__(self, seed: int, sizes: inputs.Sizes) -> None:
        super().__init__(sizes)
        r, s = inputs.zip_pair(seed, sizes.zip_rows, sizes.zip_cols)
        self.twins["r"], self.twins["s"] = r, s
        self.cols = [c for c in r.columns if c != "id"]
        self.keys = np.sort(r["id"].to_numpy()).astype(np.float64)
        self.rv, self.sv = inputs.sorted_values(r, "id"), inputs.sorted_values(s, "id2")

    def _query(self, op: str, align: str, select: bool) -> Query:
        res = _LINEAR[op](self.rv, self.sv)
        keep = res[:, 0] > SELECT_THRESHOLD if select else np.ones(len(res), dtype=bool)
        ref, scale = zip_reference(res[keep], self.keys[keep], self.cols)
        name = f"{op}-{align}" + ("-select" if select else "")
        return Query(name, self.rv.size + self.sv.size,
                     lambda tr: self.force(tr, self.result(op, align, select)),
                     lambda got: checks.zip_aggregates(got, ref, scale))

    def result(self, op: str, align: str, select: bool) -> DataFrame:
        """The relation one query computes, before it is forced."""
        out = getattr(ops, op)(self.rel["r"], self.rel["s"], "id", "id2", align=align)
        return out.filter(F.col("a0") > SELECT_THRESHOLD) if select else out

    def force(self, tracer, df: DataFrame) -> dict[str, float]:
        return aggregate(tracer, df, "id", "id2", self.cols)

    def queries(self) -> list[Query]:
        return [self._query(*call) for call in self.CALLS]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (TallQR, SquareWide, GramRegression, LinearZip)
}


def run_query(q: Query, tracer=NullTracer()) -> tuple[float, str | None]:
    """Run one query: (seconds to issue and force it, failure message or None).

    Only issuing and forcing are timed; the check runs after the clock stops.
    A query fails when the program raises or the check rejects the result.
    """
    t0 = time.perf_counter()
    try:
        with tracer.span("bench.query", query=q.name):
            data = q.run(tracer)
    except Exception:  # the program's fault is this operation's failure
        return time.perf_counter() - t0, traceback.format_exc()
    seconds = time.perf_counter() - t0
    try:
        q.check(data)
    except checks.CheckFailed as e:
        return seconds, str(e)
    return seconds, None
