"""Siegel fundamental domain: membership test and highest-point reduction.

A point is reduced when (S.1) no candidate symplectic element raises
det Im(Omega), (S.2) Im(Omega) is Minkowski reduced, and (S.3) the entries
of Re(Omega) lie in [-1/2, 1/2].  Condition (S.1) quantifies over the whole
modular group; it is decided here on a finite candidate set:

* g = 1: the single inversion J_1 (exact, classical),
* g = 2: a family of 49 bottom-row classes (C, D) with entries in
  {-1, 0, 1}, shipped as package data.  All 49 pick the highest-point
  step; membership is decided on the 19 among them whose determinants are
  Gottschling's (Math. Ann. 138 (1959) 103-124), which with (S.2) and (S.3)
  cut out F_2 exactly (CandidateSet.certifying),
* g >= 3: a heuristic set of embedded lower-rank inversions; membership is
  relative to the provided set only.

CandidateSet.guarantee says which case holds: "exact" or
"relative-to-family".  A candidate set can be read from a JSON file
(``--candidates`` in the CLI); a g = 2 set that contains Gottschling's 19
stays exact.

Every |det(C Omega + D)|^2 comes from one kernel, _det_sq_batch.  For g <= 2
it is a polynomial in the entries of Omega whose integer coefficients are
computed once per set (CandidateSet.det_table), so n points cost two
(ncand x 5) @ (5 x n) real products, which give a point the same bits in any
batch; g >= 3 takes one batched determinant.  det_sq is the kernel on a
batch of one.

Membership has one test too, membership_mask_points.  siegel_membership
evaluates it once, on the two-point batch [p, p] with slacks [eps, -eps]: a
member is on the boundary when it is not a member at -eps, the strict
interior.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from importlib import resources
from itertools import combinations

import numpy as np

from .group_core import PosDefMatrix, SiegelPoint, SymplecticInt, act_siegel, symplectic_check
from .intmat import ieye, izeros, to_float
from .jsonio import decode_symplectic, encode_symplectic, get_field
from .minkowski import DEFAULT_EPS, membership_mask, minkowski_reduce

#: highest-point steps siegel_reduce takes before it gives up
MAX_ITERS = 1000


class SiegelReductionError(RuntimeError):
    """Reduction failed to certify; carries the best iterate and the det-Im trace."""

    def __init__(self, message, best=None, trace=None):
        super().__init__(message)
        self.best = best
        self.trace = trace


@dataclass(frozen=True)
class CandidateSet:
    """Finite family of symplectic elements certifying (S.1) for one g.

    Elements with C = 0 act trivially on det Im and are dropped.
    """

    g: int
    elements: tuple
    source: str = "builtin"

    def __post_init__(self):
        kept = []
        for m in self.elements:
            if not isinstance(m, SymplecticInt):
                raise ValueError("candidate set entries must be SymplecticInt")
            if m.g != self.g:
                raise ValueError("candidate has g=%d, set has g=%d" % (m.g, self.g))
            if np.any(np.asarray(m.C) != 0):
                kept.append(m)
        object.__setattr__(self, "elements", tuple(kept))

    def __len__(self):
        return len(self.elements)

    @cached_property
    def det_table(self):
        """g <= 2: the exact integer coefficients of det(C Omega + D) over
        _omega_monomials, as floats (ncand, nmono); g >= 3: the stacked float
        (C, D) blocks, (ncand, g, g) each."""
        n, g = len(self), self.g
        if g >= 3:
            return (np.array([to_float(m.C) for m in self.elements]).reshape(n, g, g),
                    np.array([to_float(m.D) for m in self.elements]).reshape(n, g, g))
        rows = [_det_coefficients(m.C, m.D) for m in self.elements]
        return np.array(rows, dtype=float).reshape(n, 3 * g - 1)

    @cached_property
    def certifying(self) -> "CandidateSet":
        """The sub-family that decides membership.

        At g = 2: the first element whose det_table row is each of
        GOTTSCHLING_ROWS up to sign, in set order.  Every other element is
        then redundant for membership.  self when one of the 19 is missing,
        and at every other g.
        """
        if self.g != 2:
            return self
        wanted = {_up_to_sign(r) for r in GOTTSCHLING_ROWS}
        kept = []
        for m, row in zip(self.elements, self.det_table):
            key = _up_to_sign(row)
            if key in wanted:
                wanted.discard(key)
                kept.append(m)
        if wanted:
            return self
        return CandidateSet(2, tuple(kept), self.source)

    @cached_property
    def _unit_entries(self) -> tuple:
        """Entries (i, j) of Omega whose monomial alone is a row of det_table
        up to sign, so every member has |w_ij|^2 >= 1 - eps; empty at g >= 3.
        det Omega is left out: on the g = 2 Monte Carlo proposal it rejects
        0.4 % of the points beyond w11 and w22, for a dozen array operations."""
        if self.g >= 3:
            return ()
        units = {tuple(row) for row in np.abs(self.det_table)}
        eye = np.eye(3 * self.g - 1)
        return tuple(ij for m, ij in _ENTRY_MONOMIALS[self.g] if tuple(eye[m]) in units)

    @property
    def guarantee(self) -> str:
        """What a membership verdict over this set proves: "exact" when it is
        membership in F_g by a theorem (g = 1 with the inversion, whose row is
        +-w; g = 2 with Gottschling's 19), else "relative-to-family"."""
        if self.g == 1:
            exact = (1, 0) in {_up_to_sign(r) for r in self.det_table}
        else:
            exact = self.g == 2 and self.certifying is not self
        return "exact" if exact else "relative-to-family"


def _up_to_sign(row) -> tuple:
    """An integer coefficient row with its first nonzero entry made positive."""
    row = [int(v) for v in row]
    lead = next((v for v in row if v), 1)
    return tuple(v if lead > 0 else -v for v in row)


def _gottschling_rows() -> tuple:
    """det(C Omega + D) for Gottschling's 19 pairs (C, D), as coefficient
    rows over (det Omega, w11, w12, w22, 1): w11, w22, w11 + w22 - 2 w12 +- 1
    and det(Omega + S) for 15 integer symmetric S."""
    rows = [(0, 1, 0, 0, 0), (0, 0, 0, 1, 0), (0, 1, -2, 1, 1), (0, 1, -2, 1, -1)]
    # S = +-[[s11, s12], [s12, s22]]; S = 0 comes twice
    for s11, s12, s22 in ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (1, 0, -1),
                          (0, 1, 0), (1, 1, 0), (0, 1, 1)):
        for a, b, c in ((s11, s12, s22), (-s11, -s12, -s22)):
            rows.append((1, c, -2 * b, a, a * c - b * b))
    return tuple(dict.fromkeys(rows))


GOTTSCHLING_ROWS = _gottschling_rows()


@dataclass(frozen=True)
class SiegelCertificate:
    """act_siegel(gamma, original) equals reduced; det Im never decreased.

    ``guarantee`` is the candidate set's: whether the final membership check
    proves membership in F_g or only in the domain the set cuts out."""

    reduced: SiegelPoint
    gamma: SymplecticInt
    iterations: int
    on_boundary: bool
    guarantee: str


# ---------------------------------------------------------------------------
# candidate sets
# ---------------------------------------------------------------------------

def _subset_inversion(g: int, subset) -> SymplecticInt:
    """Full inversion embedded on a coordinate subset."""
    p = izeros(g, g)
    for i in subset:
        p[i, i] = 1
    eye = ieye(g)
    return SymplecticInt(eye - p, p, -p, eye - p)


def heuristic_candidates(g: int) -> CandidateSet:
    """J_g together with every embedded lower-rank inversion."""
    elems = []
    for r in range(1, g + 1):
        for subset in combinations(range(g), r):
            elems.append(_subset_inversion(g, subset))
    return CandidateSet(g, tuple(elems), source="heuristic")


@lru_cache(maxsize=8)
def builtin_candidates(g: int) -> CandidateSet:
    if g < 1:
        raise ValueError("g must be >= 1")
    if g == 1:
        return CandidateSet(1, (SymplecticInt.inversion(1),), source="builtin-g1")
    if g == 2:
        with resources.files("siegeljacobi.data").joinpath("candidates_g2.json").open() as fh:
            return _decode_candidates(json.load(fh), source="builtin-g2")
    return heuristic_candidates(g)


def _decode_candidates(obj, source: str) -> CandidateSet:
    g, elements = (get_field(obj, key, "candidates") for key in ("g", "elements"))
    if type(g) is not int or not isinstance(elements, list):
        raise ValueError("candidates: expected an integer g and a list of elements")
    elems = tuple(decode_symplectic(e, "candidates.elements[%d]" % i)
                  for i, e in enumerate(elements))
    return CandidateSet(g, elems, source=source)


def load_candidates(path) -> CandidateSet:
    with open(path) as fh:
        return _decode_candidates(json.load(fh), source=str(path))


def encode_candidates(cands: CandidateSet) -> dict:
    return {"g": cands.g,
            "elements": [encode_symplectic(m) for m in cands.elements]}


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def _det_coefficients(c, d):
    """det(C Omega + D) = c w + d (g = 1) or detC detOmega + l11 w11 +
    l12 w12 + l22 w22 + detD (g = 2): the coefficients, in exact integers."""
    if c.shape[0] == 1:
        return c[0, 0], d[0, 0]
    return (c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0],
            c[0, 0] * d[1, 1] - c[1, 0] * d[0, 1],
            c[0, 1] * d[1, 1] + c[1, 0] * d[0, 0] - c[0, 0] * d[1, 0] - c[1, 1] * d[0, 1],
            d[0, 0] * c[1, 1] - c[0, 1] * d[1, 0],
            d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0])


#: (index, (i, j)) of each monomial of _omega_monomials that is an entry w_ij
_ENTRY_MONOMIALS = {1: ((0, (0, 0)),), 2: ((1, (0, 0)), (2, (0, 1)), (3, (1, 1)))}


def _omega_monomials(xs, ys):
    """Real and imaginary parts of [w, 1] (g = 1) or [det Omega, w11, w12,
    w22, 1] (g = 2), one column per point: shape (nmono, n) each, but two
    equal columns for one point."""
    n, g = xs.shape[0], xs.shape[-1]
    fr, fi = np.empty((2, 3 * g - 1, 2 if n == 1 else n))
    if g == 1:
        fr[0], fi[0] = xs[:, 0, 0], ys[:, 0, 0]
    else:
        x11, x12, x22 = xs[:, 0, 0], xs[:, 0, 1], xs[:, 1, 1]
        y11, y12, y22 = ys[:, 0, 0], ys[:, 0, 1], ys[:, 1, 1]
        # x11 x22 - x12^2 - y11 y22 + y12^2 and x11 y22 + y11 x22 - 2 x12 y12,
        # in place but left to right, so every bit is that of the expression
        re, im = fr[0], fi[0]
        np.multiply(x11, x22, out=re)
        re -= x12 * x12
        re -= y11 * y22
        re += y12 * y12
        np.multiply(x11, y22, out=im)
        im += y11 * x22
        im -= 2.0 * x12 * y12
        fr[1], fr[2], fr[3] = x11, x12, x22
        fi[1], fi[2], fi[3] = y11, y12, y22
    fr[-1], fi[-1] = 1.0, 0.0
    return fr, fi


def _det_sq_batch(cands: CandidateSet, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """|det(C Omega + D)|^2 for each candidate (row) at each point (column).

    At g <= 2 a point alone gets two monomial columns, since numpy hands a
    one-column product to a matrix-vector kernel whose last bit can differ
    from the batched kernel's; so a point gets the same bits in any batch.
    """
    table = cands.det_table
    if cands.g <= 2:
        fr, fi = _omega_monomials(xs, ys)
        re = table @ fr
        im = table @ fi
        re *= re
        im *= im
        re += im
        return re[:, :xs.shape[0]]
    cs, ds = table
    det = np.linalg.det(np.matmul(cs, (xs + 1j * ys)[:, None]) + ds)
    return (det.real ** 2 + det.imag ** 2).T


def det_sq(cands: CandidateSet, omega: np.ndarray) -> np.ndarray:
    """|det(C Omega + D)|^2 for every candidate at one point."""
    omega = np.asarray(omega, dtype=complex)
    return _det_sq_batch(cands, omega.real[None], omega.imag[None])[:, 0]


def siegel_membership(p: SiegelPoint, cands: CandidateSet = None,
                      eps: float = DEFAULT_EPS):
    """Return (member, on_boundary) from one membership_mask_points call on
    the batch [p, p] with slacks [eps, -eps].  A member is on the boundary
    when it is not a member at -eps, the strict interior, i.e. some
    inequality holds within eps of equality.  A point gets the same bits in
    any batch, so each verdict is that of p alone at its slack."""
    cands = builtin_candidates(p.g) if cands is None else cands
    member, interior = membership_mask_points(np.stack((p.X, p.X)), np.stack((p.Y, p.Y)),
                                              cands, np.array((eps, -eps)))
    return bool(member), bool(member and not interior)


def membership_mask_points(xs: np.ndarray, ys: np.ndarray,
                           cands: CandidateSet, eps=DEFAULT_EPS) -> np.ndarray:
    """Membership over stacks of (X, Y) pairs, shape (n, g, g) each, with
    slack eps on every inequality: one float, or one per point, shape (n,).
    The batch runs these stages, each on the points the one before kept:

    1. |w_ij|^2 >= 1 - eps for each CandidateSet._unit_entries (+-w at g = 1,
       w11 and w22 for Gottschling's 19), in _det_sq_batch's arithmetic;
    2. one gather of the survivors and their slacks, none when no point was
       dropped;
    3. the X box, max |x_ij| <= 1/2 + eps, as a running maximum;
    4. the Minkowski mask;
    5. every row of _det_sq_batch, on a slice when stages 3 and 4 dropped
       no point.

    The mask is bit for bit that of one pass of every test over every
    point, in any batch: a unit row's dot product with the monomials is the
    monomial itself (0 m = 0 and 1 m = m), so every point stage 5 accepts
    passes stage 1, a non-finite monomial still fails stage 5, and every
    product gives a point the same bits in any batch.  The caller sizes the
    batch; the Monte Carlo chunk hands it geometry.ROW_BLOCK points at a time.
    """
    cands = cands.certifying
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n, g = xs.shape[0], xs.shape[-1]
    per_point = np.ndim(eps) > 0
    if per_point:
        eps = np.asarray(eps, dtype=float)
        if eps.shape != (n,):
            raise ValueError("eps must be one float or one per point, shape (%d,)" % n)
    ok = live = None
    for i, j in cands._unit_entries:
        re, im = xs[:, i, j], ys[:, i, j]
        sq = re * re
        sq += im * im
        hit = sq >= 1.0 - eps
        ok = hit if ok is None else ok & hit
    if ok is not None and np.count_nonzero(ok) < n:
        live = np.flatnonzero(ok)
        xs, ys = xs[live], ys[live]
        if per_point:
            eps = eps[live]
    part = reduce(np.maximum, np.abs(xs.reshape(len(xs), g * g)).T) <= 0.5 + eps
    part &= membership_mask(ys, eps=eps)
    kept = np.count_nonzero(part)
    if kept:
        sel = np.flatnonzero(part) if kept < part.size else slice(None)
        vals = _det_sq_batch(cands, xs[sel], ys[sel])
        part[sel] = vals.min(axis=0, initial=np.inf) >= 1.0 - (eps[sel] if per_point else eps)
    if live is None:
        return part
    ok[live] = part
    return ok


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def highest_point_step(p: SiegelPoint, cands: CandidateSet = None,
                       eps: float = DEFAULT_EPS):
    """One pass of the highest-point loop: Minkowski-reduce Im, center Re,
    then apply the best det-raising candidate if any fires.

    Returns (new_point, gamma_step) with act_siegel(gamma_step, p) = new_point;
    the step is the identity exactly when p is reduced.  Only the sub-steps
    that fire are composed.  The C = 0 ones act on (X, Y) directly: the GL
    move takes X to sym(t(U) X U) and Y to the reducer's reduced Y, the
    translation adds exact integers to X.  One point build checks their
    result (finite, Im positive definite) and only a candidate step runs
    act_siegel; a loss of definiteness is a SiegelReductionError carrying p.
    """
    cands = builtin_candidates(p.g) if cands is None else cands
    x, y, steps = p.X, p.Y, []
    # p.Y was checked when the point was built: hand it over unchecked
    cert = minkowski_reduce(PosDefMatrix._of(y), eps=eps)
    if cert.iterations > 0:
        steps.append(SymplecticInt._gl_of(cert.transform.entries))  # coerced by UnimodularInt
        a = steps[-1].float_blocks[0]
        x = (a @ x) @ a.T
        x, y = 0.5 * (x + x.T), cert.reduced

    shift = -np.round(x)
    if np.any(shift != 0):
        steps.append(SymplecticInt.translation(shift))  # exact ints at any scale
        x = x + shift

    try:
        cur = SiegelPoint._from_symmetric(x, y) if steps else p
        vals = det_sq(cands, cur.omega)
        best = int(np.argmin(vals))
        # the threshold membership applies, so no non-member is left without a step
        if vals[best] < 1.0 - eps:
            steps.append(cands.elements[best])
            cur = act_siegel(steps[-1], cur)
    except ValueError as exc:
        raise SiegelReductionError("highest-point step failed: %s" % exc, best=p) from None
    gamma = reduce(lambda acc, step: step * acc, steps) if steps else SymplecticInt.identity(p.g)
    return cur, gamma


def siegel_reduce(p: SiegelPoint, cands: CandidateSet = None,
                  eps: float = DEFAULT_EPS) -> SiegelCertificate:
    """Move p into the fundamental domain by the highest-point method.

    A stall, the cap or a bad gamma raises SiegelReductionError with the
    det-Im trace of the iterates (computed only then); a failed step, without."""
    cands = builtin_candidates(p.g) if cands is None else cands
    gamma = None
    iterates = [p]

    def failed(message):
        trace = [float(np.linalg.det(q.Y)) for q in iterates]
        return SiegelReductionError(message, best=iterates[-1], trace=trace)

    for it in range(MAX_ITERS):
        cur = iterates[-1]
        nxt, step = highest_point_step(cur, cands, eps)
        if step.is_identity():
            member, on_boundary = siegel_membership(cur, cands, eps)
            if not member:
                raise failed("highest-point step stalled on a non-member")
            gamma = SymplecticInt.identity(p.g) if gamma is None else gamma
            if not symplectic_check(gamma):
                raise failed("gamma is not symplectic")
            return SiegelCertificate(cur, gamma, it, on_boundary, cands.guarantee)
        gamma = step if gamma is None else step * gamma
        iterates.append(nxt)
    raise failed("siegel_reduce hit the iteration cap")
