"""Checks of RMA results against numpy/LAPACK, computed apart from the program.

Each check takes the forced result of one query (a pandas frame, or the
row of an aggregate) plus references computed on the seeded pandas twin,
and raises :class:`CheckFailed` with the largest error when the result
is wrong. The checks read results through their origins (the order
schema values and the ``C`` attribute), never through row positions, so
a result that is right up to a mislabelled row or column fails.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd

#: relative tolerances, chosen from float64 error bounds for the
#: well-conditioned inputs of :mod:`inputs` (κ ≤ about 10³).
QR_TOL = 1e-8
INV_TOL = 1e-8
SVD_TOL = 1e-9
DET_TOL = 1e-8
OLS_TOL = 1e-6
GRAM_TOL = 1e-9
SUM_TOL = 1e-9


class CheckFailed(AssertionError):
    """A result disagrees with its reference beyond the stated tolerance."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(got: np.ndarray, ref: np.ndarray, tol: float, what: str) -> None:
    """Max-norm error relative to ``max |ref|`` (or absolute when ref is 0)."""
    _require(got.shape == ref.shape, f"{what}: shape {got.shape}, expected {ref.shape}")
    scale = max(float(np.max(np.abs(ref), initial=0.0)), 1.0)
    err = float(np.max(np.abs(got - ref), initial=0.0)) / scale
    _require(bool(np.isfinite(err)) and err <= tol, f"{what}: relative error {err:.3g} > {tol:g}")


def by_key(pdf: pd.DataFrame, key: str, cols: Sequence[str], keys: np.ndarray) -> np.ndarray:
    """Rows of ``pdf`` for the key values ``keys`` (in that order), columns ``cols``."""
    _require(list(pdf.columns) == [key, *cols], f"schema {list(pdf.columns)}, expected {[key, *cols]}")
    got = pdf.set_index(key)
    _require(got.index.is_unique and len(got) == len(keys), f"{key} is not the input key set")
    _require(bool(got.index.isin(keys).all()), f"{key} holds values that are not input keys")
    return got.loc[keys, list(cols)].to_numpy(dtype=np.float64)


def by_name(pdf: pd.DataFrame, cols: Sequence[str], rows: Sequence[str]) -> np.ndarray:
    """Matrix of a ``(C) ∘ cols`` result with its rows put in ``rows`` order by ``C``."""
    _require(list(pdf.columns) == ["C", *cols], f"schema {list(pdf.columns)}, expected {['C', *cols]}")
    got = pdf.set_index("C")
    _require(sorted(got.index) == sorted(rows), f"C holds {sorted(got.index)[:5]}…, expected {list(rows)[:5]}…")
    return got.loc[list(rows)].to_numpy(dtype=np.float64)


def canonical_r(a: np.ndarray) -> np.ndarray:
    """R of ``numpy.linalg.qr`` with its rows' signs flipped so that diag(R) ≥ 0."""
    r = np.linalg.qr(a, mode="r")
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    return signs[:, None] * r


def qqr(q_pdf: pd.DataFrame, app: Sequence[str], a: np.ndarray, keys: np.ndarray, r_ref: np.ndarray) -> None:
    """Q is orthonormal and ``Q·R`` reproduces the input row of every key."""
    q = by_key(q_pdf, "id", app, keys)
    _close(q.T @ q, np.eye(q.shape[1]), QR_TOL, "qqr: QᵀQ vs I")
    _close(q @ r_ref, a, QR_TOL, "qqr: Q·R vs input by key")


def rqr(r_pdf: pd.DataFrame, app: Sequence[str], r_ref: np.ndarray) -> None:
    """R is upper triangular with diag ≥ 0 and matches canonical LAPACK R."""
    r = by_name(r_pdf, app, app)
    scale = float(np.max(np.abs(r_ref)))
    _require(float(np.max(np.abs(np.tril(r, -1)))) <= 1e-12 * scale, "rqr: R is not upper triangular")
    _require(bool(np.all(np.diag(r) >= 0)), "rqr: diag(R) has a negative entry")
    _close(r, r_ref, QR_TOL, "rqr: R vs numpy.linalg.qr")


def inv(x_pdf: pd.DataFrame, app: Sequence[str], a: np.ndarray, keys: np.ndarray) -> None:
    """``A·X ≈ I`` with X's rows matched to A's rows by key."""
    x = by_key(x_pdf, "id", app, keys)
    _close(a @ x, np.eye(a.shape[0]), INV_TOL, "inv: A·X vs I")


def dsv(d_pdf: pd.DataFrame, app: Sequence[str], s_ref: np.ndarray) -> None:
    """Diagonal of the singular values, in ``numpy.linalg.svd`` order."""
    d = by_name(d_pdf, app, app)
    _close(d, np.diag(s_ref), SVD_TOL, "dsv: vs numpy.linalg.svd")


def tra(t_pdf: pd.DataFrame, app: Sequence[str], a: np.ndarray, keys: np.ndarray) -> None:
    """Cell ``(C=attr, column=str(key))`` equals input cell ``(key, attr)`` exactly."""
    t = by_name(t_pdf, [str(k) for k in keys], app)
    _require(bool(np.array_equal(t, a.T)), "tra: a cell differs from the input cell of its origins")


def det(d_pdf: pd.DataFrame, sign_ref: float, logabs_ref: float) -> None:
    """The determinant agrees with ``numpy.linalg.slogdet``."""
    _require(list(d_pdf.columns) == ["C", "det"] and list(d_pdf["C"]) == ["det"],
             f"det: result {d_pdf.to_dict('list')}")
    v = float(d_pdf["det"].iloc[0])
    _require(np.isfinite(v) and v != 0.0, f"det: value {v} is not finite and non-zero")
    _require(np.sign(v) == sign_ref, f"det: sign {np.sign(v)} vs {sign_ref}")
    err = abs(np.log(abs(v)) - logabs_ref)
    _require(err <= DET_TOL, f"det: log|det| off by {err:.3g} > {DET_TOL:g}")


def coefficients(b_pdf: pd.DataFrame, y: str, names: Sequence[str], ref: np.ndarray) -> None:
    """OLS coefficients match ``numpy.linalg.lstsq``, each by regressor name."""
    got = by_name(b_pdf, [y], names)[:, 0]
    _close(got, ref, OLS_TOL, "ols: coefficients vs numpy.linalg.lstsq")


def gram_matrix(g_pdf: pd.DataFrame, app: Sequence[str], ref: np.ndarray, what: str) -> None:
    """A ``(C) ∘ Ū`` matrix result equals ``ref`` with rows matched by ``C``."""
    _close(by_name(g_pdf, app, app), ref, GRAM_TOL, what)


def zip_aggregates(got: dict[str, float], ref: dict[str, float], scale: dict[str, float]) -> None:
    """Counts and key differences exact; sums within ``SUM_TOL`` of Σ|terms|."""
    _require(set(got) == set(ref), f"aggregate names {sorted(got)} vs {sorted(ref)}")
    for name, want in ref.items():
        have = got[name]
        if name in ("n", "keydiff"):
            _require(have == want, f"{name} = {have}, expected exactly {want}")
            continue
        err = abs(have - want) / max(scale[name], 1.0)
        _require(err <= SUM_TOL, f"{name}: relative error {err:.3g} > {SUM_TOL:g}")
