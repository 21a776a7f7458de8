"""Siegel fundamental domain: membership test and highest-point reduction.

A point is reduced when (S.1) no candidate symplectic element raises
det Im(Omega), (S.2) Im(Omega) is Minkowski reduced, and (S.3) the entries
of Re(Omega) lie in [-1/2, 1/2].  Condition (S.1) quantifies over the whole
modular group; it is certified here against a finite candidate set:

* g = 1: the single inversion J_1 (exact, classical),
* g = 2: a determinant-test family shipped as package data, generated by
  enumerating symplectic words and deduplicating bottom-row classes
  (C, D) under left GL(2, Z); membership is exact relative to this set,
* g >= 3: a heuristic set of embedded lower-rank inversions; membership is
  certified relative to the provided set only.

Candidate sets can be overridden from JSON files (``--candidates`` in the
CLI, or the SJK_CANDIDATE_DIR environment variable).

Every |det(C Omega + D)|^2 comes from one kernel, _det_sq_batch.  For g <= 2
it is a polynomial in the entries of Omega whose integer coefficients are
computed once per set (CandidateSet.det_table), so n points cost two
(ncand x 5) @ (5 x n) real products; g >= 3 takes one batched determinant.
det_sq is the kernel on a batch of one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from itertools import combinations

import numpy as np

from .group_core import SiegelPoint, SymplecticInt, act_siegel
from .intmat import ieye, izeros, to_float
from .jsonio import decode_symplectic, encode_symplectic
from .minkowski import (DEFAULT_BOUND, DEFAULT_EPS, ROW_BLOCK, is_minkowski_reduced,
                        membership_mask, minkowski_reduce, on_minkowski_boundary)

ENV_CANDIDATE_DIR = "SJK_CANDIDATE_DIR"


class SiegelReductionError(RuntimeError):
    """Reduction hit the iteration cap; carries the best iterate and trace."""

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


@dataclass(frozen=True)
class SiegelCertificate:
    """act_siegel(gamma, original) equals reduced; det Im never decreased."""

    reduced: SiegelPoint
    gamma: SymplecticInt
    iterations: int
    on_boundary: bool


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
    if "g" not in obj or "elements" not in obj:
        raise ValueError("candidates.g or candidates.elements missing")
    elems = tuple(decode_symplectic(e, "candidates.elements[%d]" % i)
                  for i, e in enumerate(obj["elements"]))
    return CandidateSet(int(obj["g"]), elems, source=source)


def load_candidates(path) -> CandidateSet:
    with open(path) as fh:
        return _decode_candidates(json.load(fh), source=str(path))


def encode_candidates(cands: CandidateSet) -> dict:
    return {"g": cands.g,
            "elements": [encode_symplectic(m) for m in cands.elements]}


def save_candidates(cands: CandidateSet, path) -> None:
    with open(path, "w") as fh:
        json.dump(encode_candidates(cands), fh)


def resolve_candidates(g: int, path=None) -> CandidateSet:
    """Explicit path wins, then $SJK_CANDIDATE_DIR/candidates_g{g}.json, then built-ins."""
    if path is not None:
        return load_candidates(path)
    env_dir = os.environ.get(ENV_CANDIDATE_DIR)
    if env_dir:
        cand_path = os.path.join(env_dir, "candidates_g%d.json" % g)
        if os.path.exists(cand_path):
            return load_candidates(cand_path)
    return builtin_candidates(g)


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


def _omega_monomials(xs, ys):
    """Real and imaginary parts of [w, 1] (g = 1) or [det Omega, w11, w12,
    w22, 1] (g = 2), one column per point: shape (nmono, n) each."""
    n = xs.shape[0]
    one, zero = np.ones(n), np.zeros(n)
    if xs.shape[-1] == 1:
        return np.stack([xs[:, 0, 0], one]), np.stack([ys[:, 0, 0], zero])
    x11, x12, x22 = xs[:, 0, 0], xs[:, 0, 1], xs[:, 1, 1]
    y11, y12, y22 = ys[:, 0, 0], ys[:, 0, 1], ys[:, 1, 1]
    return (np.stack([x11 * x22 - x12 * x12 - y11 * y22 + y12 * y12,
                      x11, x12, x22, one]),
            np.stack([x11 * y22 + y11 * x22 - 2.0 * x12 * y12,
                      y11, y12, y22, zero]))


def _det_sq_batch(cands: CandidateSet, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """|det(C Omega + D)|^2 for each candidate (row) at each point (column)."""
    table = cands.det_table
    if cands.g <= 2:
        fr, fi = _omega_monomials(xs, ys)
        re = table @ fr
        im = table @ fi
        re *= re
        im *= im
        re += im
        return re
    cs, ds = table
    det = np.linalg.det(np.matmul(cs, (xs + 1j * ys)[:, None]) + ds)
    return (det.real ** 2 + det.imag ** 2).T


def det_sq(cands: CandidateSet, omega: np.ndarray) -> np.ndarray:
    """|det(C Omega + D)|^2 for every candidate at one point."""
    omega = np.asarray(omega, dtype=complex)
    return _det_sq_batch(cands, omega.real[None], omega.imag[None])[:, 0]


def siegel_membership(p: SiegelPoint, cands: CandidateSet = None,
                      eps: float = DEFAULT_EPS, bound: int = DEFAULT_BOUND):
    """Return (member, on_boundary) for the domain cut out by the candidate set."""
    cands = builtin_candidates(p.g) if cands is None else cands
    vals = det_sq(cands, p.omega)
    member = bool(np.all(vals >= 1.0 - eps))
    member = member and is_minkowski_reduced(p.Y, bound, eps)
    member = member and bool(np.max(np.abs(p.X)) <= 0.5 + eps)
    on_boundary = False
    if member:
        on_boundary = bool(np.min(np.abs(vals - 1.0)) <= eps
                           or np.max(np.abs(np.abs(p.X) - 0.5)) <= eps
                           or on_minkowski_boundary(p.Y, bound, eps))
    return member, on_boundary


def is_siegel_reduced(p: SiegelPoint, cands: CandidateSet = None,
                      eps: float = DEFAULT_EPS, bound: int = DEFAULT_BOUND) -> bool:
    return siegel_membership(p, cands, eps, bound)[0]


def membership_mask_points(xs: np.ndarray, ys: np.ndarray,
                           cands: CandidateSet, eps: float = DEFAULT_EPS,
                           bound: int = DEFAULT_BOUND) -> np.ndarray:
    """is_siegel_reduced over stacks of (X, Y) pairs, shape (n, g, g) each.

    Same conditions, candidate family and slacks as siegel_membership; the
    determinant test runs on the points that pass the box and Minkowski
    conditions, ROW_BLOCK points at a time.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ok = np.max(np.abs(xs), axis=(1, 2)) <= 0.5 + eps
    ok &= membership_mask(ys, bound, eps)
    live = np.nonzero(ok)[0]
    for start in range(0, live.size, ROW_BLOCK):
        rows = live[start:start + ROW_BLOCK]
        vals = _det_sq_batch(cands, xs[rows], ys[rows])
        ok[rows] = vals.min(axis=0, initial=np.inf) >= 1.0 - eps
    return ok


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def highest_point_step(p: SiegelPoint, cands: CandidateSet = None,
                       eps: float = DEFAULT_EPS, bound: int = DEFAULT_BOUND):
    """One pass of the highest-point loop: Minkowski-reduce Im, center Re,
    then apply the best det-raising candidate if any fires.

    Returns (new_point, gamma_step) with act_siegel(gamma_step, p) = new_point;
    the step is the identity exactly when p is reduced.  Only the sub-steps
    that fire are composed.
    """
    cands = builtin_candidates(p.g) if cands is None else cands
    gamma = None
    cur = p

    cert = minkowski_reduce(cur.Y, bound, eps)
    if cert.iterations > 0:
        step = SymplecticInt.gl_embed(cert.transform.entries)
        cur = act_siegel(step, cur)
        gamma = step if gamma is None else step * gamma

    shift = -np.round(cur.X)
    if np.any(shift != 0):
        step = SymplecticInt.translation(shift.astype(int))
        cur = act_siegel(step, cur)
        gamma = step if gamma is None else step * gamma

    vals = det_sq(cands, cur.omega)
    best = int(np.argmin(vals))
    if vals[best] < 1.0 / (1.0 + eps):
        step = cands.elements[best]
        cur = act_siegel(step, cur)
        gamma = step if gamma is None else step * gamma

    return cur, SymplecticInt.identity(p.g) if gamma is None else gamma


def siegel_reduce(p: SiegelPoint, cands: CandidateSet = None,
                  eps: float = DEFAULT_EPS, bound: int = DEFAULT_BOUND,
                  max_iters: int = 1000) -> SiegelCertificate:
    """Move p into the fundamental domain by the highest-point method."""
    cands = builtin_candidates(p.g) if cands is None else cands
    gamma = None
    cur = p
    trace = [float(np.linalg.det(p.Y))]
    for it in range(max_iters):
        nxt, step = highest_point_step(cur, cands, eps, bound)
        if step.is_identity():
            member, on_boundary = siegel_membership(cur, cands, eps, bound)
            if not member:
                raise SiegelReductionError(
                    "highest-point step stalled on a non-member",
                    best=cur, trace=trace)
            if gamma is None:
                gamma = SymplecticInt.identity(p.g)
            return SiegelCertificate(cur, gamma, it, on_boundary)
        gamma = step if gamma is None else step * gamma
        cur = nxt
        trace.append(float(np.linalg.det(cur.Y)))
    raise SiegelReductionError("siegel_reduce hit the iteration cap",
                               best=cur, trace=trace)
