"""Minkowski reduction of positive definite matrices under GL(g, Z).

The reduced domain is cut out by the inequalities

    (M.1)  a Y t(a) >= y_kk   for a != +-e_k with entries in {0, +-1} and
                              (a_k, ..., a_g) != 0,
    (M.2)  y_{k,k+1} >= 0,

with slack eps on each; the box DEFAULT_BOUND = 1 is exact for g <= 4
(README "Minkowski reduction").  The reducer is LLL pre-reduction, then
greedy passes assigning column k the shortest of these a, completed to an
exact unimodular transform, and a sign fix for (M.2).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

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


#: sum |features| up to this keeps every term and partial sum of a form finite
_SAFE_FEATURES = sys.float_info.max / 4


def _features(rows):
    """_form_features of the matrix with these rows, as a list; None where a
    form could overflow, since the matmul's fused multiply-adds round an
    overflowing term otherwise."""
    g = len(rows)
    feats = [0.5 * (rows[j][i] + rows[i][j]) for i in range(g) for j in range(i, g)]
    return feats if sum(map(abs, feats)) <= _SAFE_FEATURES else None


def _forms(terms, feats):
    """Each a Y t(a) of one column, summed left to right from 0.0 in the
    monomials' order, as the matmul sums it: every term is exact."""
    for vec in terms:
        total = 0.0
        for c, i in vec:
            total += c * feats[i]
        yield total


def _reduced(y: np.ndarray, eps) -> bool:
    """membership_mask's verdict on one matrix, on Python floats, or the
    mask's own where a form could overflow."""
    rows, g = y.tolist(), len(y)
    if g == 1:  # no form: the mask compares the empty minimum, +inf
        return 0.0 < rows[0][0] < np.inf and np.inf >= rows[0][0] - eps
    if not all(rows[k][k + 1] >= -eps for k in range(g - 1)):
        return False
    feats = _features(rows)
    if feats is None:
        return bool(membership_mask(y[None], eps=eps)[0])
    for k, terms in enumerate(_column_tables(g).terms):
        floor = rows[k][k] - eps
        if not all(form >= floor for form in _forms(terms, feats)):  # NaN fails
            return False
    return True


def is_minkowski_reduced(y, *, eps: float = DEFAULT_EPS) -> bool:
    """Membership test for the reduced domain, with slack eps on every
    inequality: membership_mask's verdict, form by form (README "Volumes")."""
    return _reduced(as_pd_array(y), eps)


def membership_mask(ys: np.ndarray, *, eps=DEFAULT_EPS) -> np.ndarray:
    """Minkowski membership over a stack of matrices (n, g, g), in one pass,
    with slack eps: one float, or one per matrix, shape (n,).  The slack is
    absolute: 1e-9 [[1, .6], [.6, 1]] is a member, [[1, .6], [.6, 1]] not.

    Every form a Y t(a) is one entry of a (nvec x g(g+1)/2) @ (g(g+1)/2 x n)
    product, a lone matrix stacked twice to get any batch's bits;
    is_minkowski_reduced gives the same verdict term by term (README
    "Volumes").  Each test reads the entry rows ys[:, i, j], contiguous for
    views ys = p.T of planes p.
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


def _lll_transform(y: np.ndarray):
    """LLL (delta = 0.99, at most 10,000 steps) on the quadratic form y:
    exact integer U with Y[U] quasi-reduced, from one Cholesky factor whose
    mu and squared norms b are updated in floats (README "Minkowski
    reduction").  A norm b <= 0 after a swap is a ReductionError."""
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
    return np.array(cols, dtype=object).T.copy()


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
    if g == 1 or _reduced(y0, eps):
        return ReductionCertificate(y0.copy(), _identity(g), 0)

    def gram(u):
        uf = to_float(u)  # one float copy each time U changes
        return uf.T @ y0 @ uf

    u = _lll_transform(y0)
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
            u = u @ _column_step(g, k, a)
            cur = gram(u)
            rows = cur.tolist()
            changed = True
        if _sign_fix(u, rows):
            cur = gram(u)
        # test what is returned: the product's asymmetry can exceed 1e-9, and
        # its definiteness is the reducer's to lose, not the input's
        red = 0.5 * (cur + cur.T)
        try:
            np.linalg.cholesky(red)
            lost = not np.isfinite(red).all()
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


def _column_forms(tables, k: int, rows) -> list:
    """Column k's forms a Y t(a) of the matrix with these rows, with the
    mask's bits; where one could overflow, by the mask's product, and all
    NaN if one is, so that min() is NaN as np.min is."""
    feats = _features(rows)
    if feats is not None:
        return list(_forms(tables.terms[k], feats))
    quad = (tables[k][1] @ _form_features(np.array((rows, rows))))[:, 0]
    return [np.nan] * len(quad) if np.isnan(quad).any() else quad.tolist()


def _column_step(g: int, k: int, a: np.ndarray) -> np.ndarray:
    """Unimodular matrix fixing e_1..e_{k-1} whose k-th column is a; its
    trailing block completes the primitive tail (a_k, ..., a_g)."""
    a = [int(x) for x in a]
    step = ieye(g)
    step[k:, k:] = complete_primitive(a[k:])
    step[:k, k] = a[:k]
    return step


def _sign_fix(u: np.ndarray, rows) -> bool:
    """Negate columns of U in place so that y_{k,k+1} >= 0 after
    conjugation, rows being t(U) Y U; whether any column was negated."""
    sign, flipped = 1, False
    for k in range(1, len(rows)):
        # conjugation maps y_{k-1,k} to s_{k-1} s_k y_{k-1,k}
        if not rows[k - 1][k] >= 0:
            sign = -sign
        if sign < 0:
            u[:, k] = -u[:, k]
            flipped = True
    return flipped
