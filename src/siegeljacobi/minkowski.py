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
(M.2).  LLL factors Y once; only the column passes form t(U) Y U.  All
transforms are exact integer matrices.
"""

from __future__ import annotations

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


def membership_mask(ys: np.ndarray, *, eps=DEFAULT_EPS) -> np.ndarray:
    """Minkowski membership over a stack of matrices (n, g, g), in one pass,
    with slack eps: one float, or one per matrix, shape (n,).  The slack is
    absolute, not scaled with Y: a Y whose entries are near eps passes every
    form test (1e-9 [[1, .6], [.6, 1]] is a member, [[1, .6], [.6, 1]] not).

    Every quadratic form a Y t(a) is one entry of a (nvec x g(g+1)/2) @
    (g(g+1)/2 x n) product; a lone matrix is stacked twice, so it gets the
    bits of any batch (README "Volumes").  At g = 1 there is no form to
    compare y_11 with, so 0 < y_11 < inf, the positive half-line, is tested
    directly (the empty minimum is +inf, which an infinite or negative y_11
    would pass).  Each test reads the entry rows ys[:, i, j], contiguous for
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
    """LLL (delta = 0.99, at most 10,000 steps) on the quadratic form y;
    returns exact integer U with Y[U] quasi-reduced.

    Y = L t(L) is factored once: mu_{i,j} = L[i,j]/L[j,j] and the squared
    Gram-Schmidt norms b_i = L[i,i]^2 are then updated in plain floats on
    each size reduction and swap (Cohen, GTM 138, Alg. 2.6.3), with no Gram
    matrix re-formed.  A norm b <= 0 after a swap is a ReductionError.
    """
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

    Every positive definite 1 x 1 matrix is reduced, so g = 1 skips the mask."""
    y0 = as_pd_array(y)
    g = y0.shape[0]
    if g == 1 or membership_mask(y0[None], eps=eps)[0]:
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
        for k, (vecs, mono) in enumerate(tables):
            quad = (mono @ _form_features(cur[None]))[:, 0]
            best_val = quad.min()
            if best_val >= cur[k, k] * (1 - 1e-12):
                continue  # e_k already minimal for this column
            # lexicographically smallest among the near-minimal candidates
            a = vecs[np.argmax(quad <= best_val * (1 + 1e-12))]
            u = u @ _column_step(g, k, a)
            cur = gram(u)
            changed = True
        u = u @ _sign_fix(cur)
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


def _column_step(g: int, k: int, a: np.ndarray) -> np.ndarray:
    """Unimodular matrix fixing e_1..e_{k-1} whose k-th column is a.

    Requires gcd(a_k, ..., a_g) = 1; the trailing block completes that
    primitive tail, so the step is unimodular by construction.
    """
    a = [int(x) for x in a]
    step = ieye(g)
    step[k:, k:] = complete_primitive(a[k:])
    step[:k, k] = a[:k]
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
