"""Minkowski reduction of positive definite matrices under GL(g, Z).

The reduced domain is cut out by the inequalities

    (M.1)  a Y t(a) >= y_kk   for a != +-e_k with entries in {0, +-1} and
                              (a_k, ..., a_g) != 0,
    (M.2)  y_{k,k+1} >= 0,

with slack eps on each; the box DEFAULT_BOUND = 1 is exact for g <= 4.
The reducer is LLL, then greedy passes assigning column k the shortest of
these a, and a sign fix for (M.2); at g = 2 on Python scalars (README
"Minkowski reduction").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, sqrt

import numpy as np

from .intmat import complete_primitive, ieye, to_float
from .group_core import NumericError, PosDefMatrix, UnimodularInt, as_pd_array

DEFAULT_BOUND = 1
DEFAULT_EPS = 1e-9

#: successive-minima passes minkowski_reduce makes before it gives up
MAX_ITERS = 32


class ReductionError(NumericError):
    """Reduction failed to converge; carries the best iterate and, if any, the det-Im trace."""

    def __init__(self, message, best=None, trace=None):
        super().__init__(message)
        self.best, self.trace = best, trace


@dataclass(frozen=True)
class ReductionCertificate:
    """Output of minkowski_reduce: reduced = t(transform) Y transform."""

    reduced: np.ndarray
    transform: UnimodularInt
    iterations: int


@lru_cache(maxsize=32)
def _candidate_arrays(g: int, bound: int):
    """All nonzero integer vectors with max|a_i| <= bound, as floats of
    shape (n, g), and tail flags: tails[i, k] is True iff
    gcd(a_k, ..., a_g) = 1 for vector i."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    rng = np.arange(-bound, bound + 1)
    vecs = np.stack(np.meshgrid(*([rng] * g), indexing="ij"), axis=-1).reshape(-1, g)
    vecs = vecs[np.any(vecs != 0, axis=1)]
    tails = np.gcd.accumulate(np.abs(vecs[:, ::-1]), axis=1)[:, ::-1] == 1
    return to_float(vecs), tails


@lru_cache(maxsize=8)
def _triu(g: int):
    return np.triu_indices(g)


def _form_features(ys: np.ndarray) -> np.ndarray:
    """Entries y_ij (i <= j) of each symmetrized matrix, shape (g(g+1)/2, n)."""
    (iu, ju), yt = _triu(ys.shape[-1]), ys.T
    return 0.5 * (yt[iu, ju] + yt[ju, iu])


class _Tables(tuple):
    """(vectors, monomials) per column, with the monomials' nonzero terms."""


@lru_cache(maxsize=32)
def _column_tables(g: int):
    """Per column k: the (M.1) vectors a, entries in {0, +-1} and tail
    (a_k, ..., a_g) nonzero, in lexicographic order, and their monomials
    a_i a_j (doubled for i < j), shape (nvec, g(g+1)/2), so that
    monomials @ _form_features(ys) is every a Y t(a) at once; .terms[k]
    holds each vector's nonzero (coefficient, feature index) pairs.  Of a
    and -a only the one with first nonzero entry negative is kept.
    """
    vecs, tails = _candidate_arrays(g, DEFAULT_BOUND)
    lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    iu, ju = _triu(g)
    out = []
    for k in range(g):
        cand = vecs[tails[:, k] & (lead < 0) & np.any(vecs != -np.eye(g)[k], axis=1)]
        cand = cand[np.lexsort(cand.T[::-1])]
        out.append((cand, np.where(iu == ju, 1.0, 2.0) * cand[:, iu] * cand[:, ju]))
    tables = _Tables(out)
    tables.terms = tuple(tuple(tuple((c, i) for i, c in enumerate(row) if c)
                               for row in mono.tolist()) for _, mono in out)
    return tables


def _column_forms(tables, k: int, rows) -> list:
    """Column k's forms a Y t(a) of the matrix with these rows, with the
    mask's bits: summed term by term from 0.0 in the monomials' order, the
    product's, where every sum is finite (a term c y_ij, c = +-1, +-2, is
    exact unless it overflows, and then its sum is not); else the mask's
    product, with no warning, all NaN if one is, as np.min sees them."""
    g = len(rows)
    if g == 2:  # tables.terms' sums written out for speed: (-1, -1), (-1, 1), (0, -1)
        f0, f2 = 0.5 * (rows[0][0] + rows[0][0]), 0.5 * (rows[1][1] + rows[1][1])
        f1 = 0.5 * (rows[1][0] + rows[0][1])
        quad = [0.0 + f0 + 2.0 * f1 + f2, 0.0 + f0 + -2.0 * f1 + f2, 0.0 + f2][:3 - k]
    else:
        feats = [0.5 * (rows[j][i] + rows[i][j]) for i in range(g) for j in range(i, g)]
        quad = []
        for vec in tables.terms[k]:
            total = 0.0
            for c, i in vec:
                total += c * feats[i]
            quad.append(total)
    if all(map(isfinite, quad)):
        return quad
    with np.errstate(over="ignore", invalid="ignore"):
        quad = (tables[k][1] @ _form_features(np.array((rows, rows))))[:, 0]
    return [np.nan] * len(quad) if np.isnan(quad).any() else quad.tolist()


def _reduced(rows, eps) -> bool:
    """membership_mask's verdict on the matrix with these rows."""
    g = len(rows)
    if g == 1:  # no form: the mask compares the empty minimum, +inf
        return 0.0 < rows[0][0] < np.inf and np.inf >= rows[0][0] - eps
    if not all(rows[k][k + 1] >= -eps for k in range(g - 1)):
        return False
    tables = _column_tables(g)
    # a NaN form makes every form of its column NaN, and then this fails
    return all(min(_column_forms(tables, k, rows)) >= rows[k][k] - eps for k in range(g))


def is_minkowski_reduced(y, *, eps: float = DEFAULT_EPS) -> bool:
    """Membership test for the reduced domain, with slack eps on every
    inequality: membership_mask's verdict, from _column_forms."""
    return _reduced(as_pd_array(y).tolist(), eps)


def membership_mask(ys: np.ndarray, *, eps=DEFAULT_EPS) -> np.ndarray:
    """Minkowski membership over a stack of matrices (n, g, g), in one pass,
    with slack eps: one float, or one per matrix, shape (n,).  The slack is
    absolute: 1e-9 [[1, .6], [.6, 1]] is a member, [[1, .6], [.6, 1]] not.

    Every form a Y t(a) is one entry of one product, a lone matrix stacked
    twice to get any batch's bits (README "Volumes").  Each test reads the
    entry rows ys[:, i, j], contiguous for views ys = p.T of planes p.
    """
    ys = np.asarray(ys, dtype=float)
    n, g = ys.shape[0], ys.shape[-1]
    rows = ys.T  # rows[j, i] is y_ij of every matrix
    ok = (0.0 < rows[0, 0]) & (rows[0, 0] < np.inf) if g == 1 else rows[1, 0] >= -eps
    for k in range(1, g - 1):
        ok &= rows[k + 1, k] >= -eps
    feats = _form_features(ys if n > 1 else np.concatenate((ys, ys)))
    for k, (_, mono) in enumerate(_column_tables(g)):
        forms = (mono @ feats)[:, :n]
        ok &= np.minimum.reduce(forms, axis=0, initial=np.inf) >= rows[k, k] - eps
    return ok


def _lll_transform(y: np.ndarray) -> list:
    """LLL (delta = 0.99, at most 10,000 steps) on the quadratic form y:
    the rows of an exact integer U with Y[U] quasi-reduced, from one
    Cholesky factor whose mu and squared norms b are updated in floats
    (README "Minkowski reduction").  A norm b <= 0 after a swap is a
    ReductionError."""
    g = y.shape[0]
    ell = np.linalg.cholesky(y)
    diag = np.diag(ell)
    mu, b = (ell / diag).tolist(), (diag * diag).tolist()
    cols = ieye(g).tolist()  # the columns of U, in Python ints
    k, steps = 1, 0
    while k < g and steps < 10000:
        steps += 1
        for j in range(k - 1, -1, -1):
            q = int(round(mu[k][j]))
            if q != 0:  # mu[j][j] = 1 exactly, so mu[k][j] -= q
                cols[k] = [a - q * c for a, c in zip(cols[k], cols[j])]
                mu[k][:j + 1] = [a - q * c for a, c in zip(mu[k], mu[j][:j + 1])]
        m = mu[k][k - 1]
        if b[k] >= (0.99 - m * m) * b[k - 1]:
            k += 1
            continue
        cols[k - 1], cols[k] = cols[k], cols[k - 1]
        big = b[k] + m * m * b[k - 1]
        # ratios first: a product of two norms underflows on a tiny Y
        mu[k][k - 1] = m * (b[k - 1] / big)
        b[k - 1], b[k] = big, b[k - 1] * (b[k] / big)
        if not min(b[k - 1], b[k]) > 0:
            raise ReductionError("minkowski_reduce lost definiteness in LLL")
        mu[k - 1][:k - 1], mu[k][:k - 1] = mu[k][:k - 1], mu[k - 1][:k - 1]
        for i in range(k + 1, g):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
        k = max(k - 1, 1)
    return [list(row) for row in zip(*cols)]


def _cholesky2(rows) -> list:
    """The rows of np.linalg.cholesky of a finite 2 x 2 matrix, bit for bit,
    as OpenBLAS's unblocked potf2 computes them, or its LinAlgError (README
    "Minkowski reduction")."""
    (y00, _), (y10, y11) = rows
    if not y00 > 0:
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    l00 = sqrt(y00)
    l10 = y10 * (1 / l00)  # potf2 scales the column by a reciprocal
    d = y11 - l10 * l10
    if not d > 0:
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    return [[l00, 0.0], [l10, sqrt(d)]]


def _gauss_transform(rows) -> list:
    """_lll_transform of a 2 x 2 matrix on Python scalars, from _cholesky2:
    Gauss reduction with its swap rule, rounding and ratio-first updates."""
    (l00, _), (l10, l11) = _cholesky2(rows)
    m, b0, b1 = l10 / l00, l00 * l00, l11 * l11
    c0, c1 = [1, 0], [0, 1]  # the columns of U
    for _ in range(10000):
        q = int(round(m))
        if q != 0:
            c1 = [c1[0] - q * c0[0], c1[1] - q * c0[1]]
            m -= q
        if b1 >= (0.99 - m * m) * b0:
            break
        c0, c1 = c1, c0
        big = b1 + m * m * b0
        m = m * (b0 / big)
        b0, b1 = big, b0 * (b1 / big)
        if not min(b0, b1) > 0:
            raise ReductionError("minkowski_reduce lost definiteness in LLL")
    return [[c0[0], c1[0]], [c0[1], c1[1]]]


@lru_cache(maxsize=8)
def _identity(g: int) -> UnimodularInt:
    """The identity certificate transform, shared per g: its arrays are read-only."""
    eye = UnimodularInt(ieye(g))
    eye.entries.flags.writeable = eye.inverse_entries.flags.writeable = False
    return eye


def minkowski_reduce(y, *, eps: float = DEFAULT_EPS) -> ReductionCertificate:
    """Reduce Y into the Minkowski domain with an exact unimodular certificate.

    Every positive definite 1 x 1 matrix is reduced, so g = 1 skips the test."""
    y0 = as_pd_array(y)
    g = y0.shape[0]
    if g == 1 or _reduced(y0.tolist(), eps):
        return ReductionCertificate(y0.copy(), _identity(g), 0)
    return _reduce(y0, eps, scalar=g == 2)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite t(U) Y U is named below
def _reduce(y0: np.ndarray, eps, scalar: bool) -> ReductionCertificate:
    """minkowski_reduce past its early exit: LLL, then column passes.  With
    scalar (g = 2), LLL and the definiteness test of the result run on
    Python floats, through _cholesky2, with the bits LAPACK gives."""
    def gram(u):
        uf = to_float(u)  # one float copy each time U changes
        return uf.T @ y0 @ uf

    g = y0.shape[0]
    u = _gauss_transform(y0.tolist()) if scalar else _lll_transform(y0)
    cur = gram(u)
    tables = _column_tables(g)

    passes = 0
    while passes < MAX_ITERS:
        passes += 1
        changed = False
        rows = cur.tolist()
        for k, (vecs, _) in enumerate(tables):
            quad = _column_forms(tables, k, rows)
            best_val = min(quad)
            if best_val >= rows[k][k] * (1 - 1e-12):
                continue  # e_k already minimal for this column
            # lexicographically smallest among the near-minimal candidates;
            # none when the forms are NaN, and then vector 0, as np.argmax gives
            cut = best_val * (1 + 1e-12)
            a = vecs[next((i for i, form in enumerate(quad) if form <= cut), 0)]
            cols = _column_step(g, k, a).T.tolist()
            u = [[sum(x * c for x, c in zip(row, col)) for col in cols] for row in u]
            cur = gram(u)
            rows = cur.tolist()
            changed = True
        if _sign_fix(u, rows):
            cur = gram(u)
        # test what is returned: the product's asymmetry can exceed 1e-9, and
        # its definiteness is the reducer's to lose, not the input's
        red = 0.5 * (cur + cur.T)
        rows = red.tolist()
        lost = not all(isfinite(v) for row in rows for v in row)
        if not lost:  # _cholesky2 is LAPACK's on finite rows only
            try:
                _cholesky2(rows) if scalar else np.linalg.cholesky(red)
            except np.linalg.LinAlgError:
                lost = True
        if lost:
            raise ReductionError("minkowski_reduce lost definiteness in a column pass",
                                 best=cur)
        if is_minkowski_reduced(PosDefMatrix._of(red), eps=eps):
            return ReductionCertificate(red, UnimodularInt(u), passes)
        if not changed:
            raise ReductionError("minkowski_reduce stalled before membership",
                                 best=cur)
    raise ReductionError("minkowski_reduce hit the iteration cap", best=cur)


def _column_step(g: int, k: int, a: np.ndarray) -> np.ndarray:
    """Unimodular matrix fixing e_1..e_{k-1} whose k-th column is a; its
    trailing block completes the primitive tail (a_k, ..., a_g)."""
    a = [int(x) for x in a]
    step = ieye(g)
    step[k:, k:] = complete_primitive(a[k:])
    step[:k, k] = a[:k]
    return step


def _sign_fix(u: list, rows) -> bool:
    """Negate columns of U, given by its rows, in place so that
    y_{k,k+1} >= 0 after conjugation, rows being t(U) Y U; whether any
    column was negated."""
    sign, flipped = 1, False
    for k in range(1, len(rows)):
        # conjugation maps y_{k-1,k} to s_{k-1} s_k y_{k-1,k}
        if not rows[k - 1][k] >= 0:
            sign = -sign
        if sign < 0:
            for row in u:
                row[k] = -row[k]
            flipped = True
    return flipped
