"""Minkowski reduction of positive definite matrices under GL(g, Z).

The reduced domain is cut out by the inequalities

    (M.1)  a Y t(a) >= y_kk   for integer a != +-e_k with gcd(a_k, ..., a_g) = 1,
    (M.2)  y_{k,k+1} >= 0,

checked over the fixed box max|a_i| <= DEFAULT_BOUND = 3, which is exact for
g <= 3 and carries no exactness promise beyond.  The form of +-e_k is y_kk
at every Y, so it is left out, and membership with slack -eps is the strict
interior.  The reducer is a greedy successive-minima pass: LLL pre-reduction
keeps the true minimizers inside the search box, then column k is assigned
the shortest primitive-tail vector, completed to a unimodular transform, and
signs are fixed for (M.2).  All transforms are exact integer matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .intmat import as_imat, complete_primitive, ieye, int_det, to_float
from .group_core import as_pd_array

DEFAULT_BOUND = 3
DEFAULT_EPS = 1e-9

#: matrices per block in the batched masks; bounds their peak memory
ROW_BLOCK = 65_536

#: successive-minima passes minkowski_reduce makes before it gives up
MAX_ITERS = 32


class ReductionError(RuntimeError):
    """Reduction failed to converge; carries the best iterate seen."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class UnimodularInt:
    """Element of GL(g, Z); |det| = 1 checked exactly."""

    entries: np.ndarray

    def __post_init__(self):
        m = as_imat(self.entries)
        if int_det(m) not in (1, -1):
            raise ValueError("matrix is not unimodular")
        object.__setattr__(self, "entries", m)

    @property
    def g(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ReductionCertificate:
    """Output of minkowski_reduce: reduced = t(transform) Y transform."""

    reduced: np.ndarray
    transform: UnimodularInt
    iterations: int


def primitive_candidates(g: int, bound: int):
    """All nonzero integer vectors with max|a_i| <= bound, plus tail-gcd flags.

    Returns (vectors, tails) where vectors has shape (n, g) and
    tails[i, k] is True iff gcd(a_k, ..., a_g) = 1 for vectors[i].
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    rng = np.arange(-bound, bound + 1)
    grids = np.meshgrid(*([rng] * g), indexing="ij")
    vecs = np.stack([gr.ravel() for gr in grids], axis=1)
    vecs = vecs[np.any(vecs != 0, axis=1)]
    tails = np.zeros((len(vecs), g), dtype=bool)
    for i, a in enumerate(vecs):
        t = 0
        for k in range(g - 1, -1, -1):
            t = gcd(t, int(a[k]))
            tails[i, k] = (t == 1)
    return vecs, tails


@lru_cache(maxsize=32)
def _candidate_arrays(g: int, bound: int):
    vecs, tails = primitive_candidates(g, bound)
    return to_float(vecs), tails


@lru_cache(maxsize=8)
def _triu(g: int):
    return np.triu_indices(g)


def _form_features(ys: np.ndarray) -> np.ndarray:
    """Entries y_ij (i <= j) of each symmetrized matrix, shape (g(g+1)/2, n)."""
    iu, ju = _triu(ys.shape[-1])
    return 0.5 * (ys[:, iu, ju] + ys[:, ju, iu]).T


@lru_cache(maxsize=32)
def _column_tables(g: int):
    """Per column k: the primitive-tail candidates a in lexicographic order
    and their monomials a_i a_j (doubled for i < j), shape (nvec, g(g+1)/2),
    so that monomials @ _form_features(ys) is every a Y t(a) at once.

    a and -a give the same form, so only the lexicographically smaller of
    the two (first nonzero entry negative) is kept, and -e_k is left out.
    """
    vecs, tails = _candidate_arrays(g, DEFAULT_BOUND)
    lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    iu, ju = _triu(g)
    out = []
    for k in range(g):
        cand = vecs[tails[:, k] & (lead < 0) & np.any(vecs != -np.eye(g)[k], axis=1)]
        cand = cand[np.lexsort(cand.T[::-1])]
        out.append((cand, np.where(iu == ju, 1.0, 2.0) * cand[:, iu] * cand[:, ju]))
    return tuple(out)


def is_minkowski_reduced(y, *, eps: float = DEFAULT_EPS) -> bool:
    """Membership test for the reduced domain, with slack eps on every inequality."""
    return bool(membership_mask(as_pd_array(y)[None], eps=eps)[0])


def membership_mask(ys: np.ndarray, *, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Minkowski membership over a stack of matrices (n, g, g).

    Every quadratic form a Y t(a) is one entry of a (nvec x g(g+1)/2) @
    (g(g+1)/2 x n) product, taken in blocks of ROW_BLOCK matrices.
    """
    ys = np.asarray(ys, dtype=float)
    g = ys.shape[-1]
    tables = _column_tables(g)
    ok = np.all(ys[:, np.arange(g - 1), np.arange(1, g)] >= -eps, axis=1)
    for start in range(0, ys.shape[0], ROW_BLOCK):
        block = ys[start:start + ROW_BLOCK]
        feats = _form_features(block)
        part = ok[start:start + ROW_BLOCK]
        for k, (_, mono) in enumerate(tables):
            part &= (mono @ feats).min(axis=0, initial=np.inf) >= block[:, k, k] - eps
    return ok


def _lll_transform(y: np.ndarray, delta: float = 0.99, max_steps: int = 10000):
    """LLL on the quadratic form y; returns exact integer U with Y[U] quasi-reduced.

    The Cholesky factor of the running Gram matrix supplies the Gram-Schmidt
    data: mu_{i,j} = L[i,j]/L[j,j] and squared GS norms L[i,i]^2.
    """
    g = y.shape[0]
    u = ieye(g)

    def chol():
        return np.linalg.cholesky(to_float(u.T) @ y @ to_float(u))

    k = 1
    steps = 0
    while k < g and steps < max_steps:
        steps += 1
        ell = chol()
        for j in range(k - 1, -1, -1):
            q = int(round(ell[k, j] / ell[j, j]))
            if q != 0:
                u[:, k] = u[:, k] - q * u[:, j]
                ell = chol()
        mu = ell[k, k - 1] / ell[k - 1, k - 1]
        if ell[k, k] ** 2 >= (delta - mu * mu) * ell[k - 1, k - 1] ** 2:
            k += 1
        else:
            u[:, [k - 1, k]] = u[:, [k, k - 1]]
            k = max(k - 1, 1)
    return u


def minkowski_reduce(y, *, eps: float = DEFAULT_EPS) -> ReductionCertificate:
    """Reduce Y into the Minkowski domain with an exact unimodular certificate."""
    y0 = as_pd_array(y)
    g = y0.shape[0]
    if membership_mask(y0[None], eps=eps)[0]:
        return ReductionCertificate(y0.copy(), UnimodularInt(ieye(g)), 0)

    u = _lll_transform(y0)
    tables = _column_tables(g)

    passes = 0
    while passes < MAX_ITERS:
        passes += 1
        cur = to_float(u.T) @ y0 @ to_float(u)
        changed = False
        for k, (vecs, mono) in enumerate(tables):
            quad = (mono @ _form_features(cur[None]))[:, 0]
            best_val = quad.min()
            if best_val >= cur[k, k] * (1 - 1e-12):
                continue  # e_k already minimal for this column
            # lexicographically smallest among the near-minimal candidates
            a = vecs[np.argmax(quad <= best_val * (1 + 1e-12))]
            u = u @ _column_step(g, k, a)
            cur = to_float(u.T) @ y0 @ to_float(u)
            changed = True
        u = u @ _sign_fix(cur)
        cur = to_float(u.T) @ y0 @ to_float(u)
        # test what is returned: the product's asymmetry can exceed 1e-9
        red = 0.5 * (cur + cur.T)
        if is_minkowski_reduced(red, eps=eps):
            return ReductionCertificate(red, UnimodularInt(u), passes)
        if not changed:
            raise ReductionError("minkowski_reduce stalled before membership",
                                 best=cur)
    raise ReductionError("minkowski_reduce hit the iteration cap", best=cur)


def _column_step(g: int, k: int, a: np.ndarray) -> np.ndarray:
    """Unimodular matrix fixing e_1..e_{k-1} whose k-th column is a.

    Requires gcd(a_k, ..., a_g) = 1; the trailing block is completed from the
    primitive tail.
    """
    a = [int(x) for x in a]
    tail = a[k:]
    w = complete_primitive(tail)  # (g-k) x (g-k), first column = tail
    step = ieye(g)
    for i in range(k, g):
        step[i, k] = tail[i - k]
        for j in range(k + 1, g):
            step[i, j] = w[i - k, j - k]
    for i in range(k):
        step[i, k] = a[i]
    if int_det(step) not in (1, -1):
        raise ReductionError("column step for k=%d is not unimodular" % k)
    return step


def _sign_fix(cur: np.ndarray) -> np.ndarray:
    """Diagonal +-1 matrix enforcing y_{k,k+1} >= 0 after conjugation."""
    g = cur.shape[0]
    s = [1] * g
    for k in range(1, g):
        # conjugation maps y_{k-1,k} to s_{k-1} s_k y_{k-1,k}
        s[k] = s[k - 1] if cur[k - 1, k] >= 0 else -s[k - 1]
    d = ieye(g)
    for k in range(g):
        d[k, k] = s[k]
    return d
