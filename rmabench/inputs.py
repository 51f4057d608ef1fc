"""Seeded pandas twins of the benchmark inputs.

Every input relation is generated here as a pandas frame from the run's
``--seed``; the Spark relations are built from these frames, and the
reference results are computed with numpy/LAPACK on the same frames. The
program under test only ever sees the generated relations.

Keys are ``1..n`` stored in a seeded random row order, so an operation
that forgot to sort by the order schema gives a visibly wrong result.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

#: seed of the inputs that must not depend on ``--seed`` (the known-fault
#: ``ols`` call with over 100 regressors).
FIXED_SEED = 20200614


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the four workloads (rows × application attributes)."""

    tall_rows: int = 40_000
    tall_cols: int = 40
    square_n: int = 300
    reg_rows: int = 10_000
    reg_cols: int = 10
    wide_reg_rows: int = 500
    wide_reg_cols: int = 101
    zip_rows: int = 50_000
    zip_cols: int = 10


#: the sizes the benchmark runs at; the tests use much smaller ones.
FULL = Sizes()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def keyed(values: np.ndarray, names: list[str], key: str, g: np.random.Generator) -> pd.DataFrame:
    """Frame with key ``1..n`` plus ``values``, rows in a seeded random order."""
    n = values.shape[0]
    pdf = pd.DataFrame(values, columns=names)
    pdf.insert(0, key, np.arange(1, n + 1, dtype=np.int64))
    return pdf.iloc[g.permutation(n)].reset_index(drop=True)


def tall(seed: int, rows: int, cols: int) -> pd.DataFrame:
    """Tall, narrow relation ``(id, a0..)``, values uniform in [0, 10⁴).

    A uniform tall matrix is well conditioned (κ about 10 for 40 columns),
    so QR results can be checked to 1e-8.
    """
    g = _rng(seed, 1)
    return keyed(g.random((rows, cols)) * 1e4, [f"a{j}" for j in range(cols)], "id", g)


def square(seed: int, n: int) -> pd.DataFrame:
    """Square relation ``(id, a0..a{n-1})`` holding ``I + G·0.5/√n``.

    ``G`` is standard normal, so the eigenvalues lie near a disc of radius
    0.5 around 1: the matrix is well conditioned and its determinant is
    finite and non-zero at any ``n`` (uniform entries in [0, 10⁴)
    overflow ``det`` to ``inf`` long before ``n = 1000``).
    """
    g = _rng(seed, 2)
    m = np.eye(n) + g.standard_normal((n, n)) * (0.5 / np.sqrt(n))
    return keyed(m, [f"a{j}" for j in range(n)], "id", g)


def regression(seed: int, rows: int, cols: int) -> tuple[pd.DataFrame, list[str]]:
    """Relation ``(id, f0.., y)`` with ``y = X·β + β₀ + N(0, 1)`` noise.

    Regressors are uniform in [0, 10); β is drawn from the seed too.
    Returns the frame and the regressor names.
    """
    g = _rng(seed, 3)
    names = [f"f{j}" for j in range(cols)]
    x = g.random((rows, cols)) * 10.0
    beta = g.uniform(-5.0, 5.0, cols)
    y = x @ beta + 5.0 + g.standard_normal(rows)
    pdf = keyed(np.column_stack([x, y]), [*names, "y"], "id", g)
    return pdf, names


def wide_regression(rows: int, cols: int) -> tuple[pd.DataFrame, list[str]]:
    """Regression input with ``cols`` regressors, from :data:`FIXED_SEED`."""
    return regression(FIXED_SEED, rows, cols)


def zip_pair(seed: int, rows: int, cols: int) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Two relations ``(id, a0..)`` and ``(id2, b0..)`` over the same key set.

    Values are uniform in [0, 10⁴) as in Table 7, so ``a0 + b0 > 10⁴``
    keeps about half the tuples. Each relation has its own row order.
    """
    g = _rng(seed, 4)
    r = keyed(g.random((rows, cols)) * 1e4, [f"a{j}" for j in range(cols)], "id", g)
    s = keyed(g.random((rows, cols)) * 1e4, [f"b{j}" for j in range(cols)], "id2", g)
    return r, s


def sorted_values(pdf: pd.DataFrame, key: str) -> np.ndarray:
    """Application part of ``pdf`` as a matrix sorted by ``key``."""
    return pdf.sort_values(key).drop(columns=[key]).to_numpy(dtype=np.float64)
