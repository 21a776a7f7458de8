"""Minkowski reduction of positive definite matrices under GL(g, Z).

The reduced domain is cut out by the inequalities

    (M.1)  a Y t(a) >= y_kk   for a != +-e_k with entries in {0, +-1} and
                              (a_k, ..., a_g) != 0,
    (M.2)  y_{k,k+1} >= 0,

with slack eps on each.  The reduced cone asks (M.1) of every integer a
with gcd(a_k, ..., a_g) = 1; Minkowski (J. reine angew. Math. 129 (1905)
220-274) showed that for g <= 4 the a with entries in {0, +-1} imply all
the others (survey: van der Waerden, Acta Math. 96 (1956) 265-309).  So the
box max|a_i| <= DEFAULT_BOUND = 1 is exact for g <= 4 and carries no
exactness promise beyond.  The form of +-e_k is y_kk at every Y, so it is
left out, and membership with slack -eps is the strict interior.  The
reducer is a greedy successive-minima pass: LLL pre-reduction first, which
brings Y close enough to reduced that the {0, +-1} vectors serve as column
steps in practice, then column k is assigned the shortest of them with a
nonzero tail, completed to a unimodular transform, and signs are fixed for
(M.2).  All transforms are exact integer matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .intmat import as_imat, complete_primitive, ieye, int_det, to_float
from .group_core import as_pd_array

DEFAULT_BOUND = 1
DEFAULT_EPS = 1e-9

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
    iu, ju = _triu(ys.shape[-1])
    return 0.5 * (ys[:, iu, ju] + ys[:, ju, iu]).T


@lru_cache(maxsize=32)
def _column_tables(g: int):
    """Per column k: the (M.1) vectors a, entries in {0, +-1} and tail
    (a_k, ..., a_g) nonzero, in lexicographic order, and their monomials
    a_i a_j (doubled for i < j), shape (nvec, g(g+1)/2), so that
    monomials @ _form_features(ys) is every a Y t(a) at once.

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
    """Minkowski membership over a stack of matrices (n, g, g), in one pass.

    Every quadratic form a Y t(a) is one entry of a (nvec x g(g+1)/2) @
    (g(g+1)/2 x n) product.  A stack of one matrix is stacked twice, since
    numpy hands a one-column product to a matrix-vector kernel whose last
    bit can differ from the batched kernel's; so a matrix gets the same bits
    in any batch.  At g = 1 there is no form to compare y_11 with, so
    0 < y_11 < inf, the positive half-line, is tested directly (the empty
    minimum is +inf, which an infinite or negative y_11 would pass).
    """
    ys = np.asarray(ys, dtype=float)
    n, g = ys.shape[0], ys.shape[-1]
    if g == 1:
        y = ys[:, 0, 0]
        ok = (0.0 < y) & (y < np.inf)
    else:
        ok = np.ones(n, dtype=bool)
    for k in range(g - 1):
        ok &= ys[:, k, k + 1] >= -eps
    feats = _form_features(ys if n > 1 else np.concatenate((ys, ys)))
    for k, (_, mono) in enumerate(_column_tables(g)):
        forms = (mono @ feats)[:, :n]
        ok &= forms.min(axis=0, initial=np.inf) >= ys[:, k, k] - eps
    return ok


def _lll_transform(y: np.ndarray):
    """LLL (delta = 0.99, at most 10,000 steps) on the quadratic form y;
    returns exact integer U with Y[U] quasi-reduced.

    The Cholesky factor of the running Gram matrix supplies the Gram-Schmidt
    data: mu_{i,j} = L[i,j]/L[j,j] and squared GS norms L[i,i]^2.  The float
    Gram t(U) Y U can lose definiteness as U grows; that is a ReductionError.
    """
    g = y.shape[0]
    u = ieye(g)

    def chol():
        try:
            return np.linalg.cholesky(to_float(u.T) @ y @ to_float(u))
        except np.linalg.LinAlgError:
            raise ReductionError("minkowski_reduce lost definiteness in LLL") from None

    k = 1
    steps = 0
    while k < g and steps < 10000:
        steps += 1
        ell = chol()
        for j in range(k - 1, -1, -1):
            q = int(round(ell[k, j] / ell[j, j]))
            if q != 0:
                u[:, k] = u[:, k] - q * u[:, j]
                ell = chol()
        mu = ell[k, k - 1] / ell[k - 1, k - 1]
        if ell[k, k] ** 2 >= (0.99 - mu * mu) * ell[k - 1, k - 1] ** 2:
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

    Requires gcd(a_k, ..., a_g) = 1; the trailing block is the completion of
    the primitive tail, whose first column is that tail.
    """
    a = [int(x) for x in a]
    step = ieye(g)
    step[k:, k:] = complete_primitive(a[k:])
    step[:k, k] = a[:k]
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
