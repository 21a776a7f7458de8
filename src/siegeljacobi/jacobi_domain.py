"""Fundamental domain for the discrete Jacobi group on the Siegel-Jacobi space.

Over a reduced Omega, the fiber cell is the parallelepiped P_Omega spanned by
the lattice basis {E_kj, E_kj Omega} with coefficients in [0, 1]; of the
two points -I relates, the reducer returns the one with the lexicographically
smaller coefficient vector (README "Jacobi reduction").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .group_core import (HeisenbergInt, JacobiGroupElement, JacobiPoint,
                         SiegelPoint, SymplecticInt, _complex_parts, _lapack, jacobi_mul)
from .minkowski import DEFAULT_EPS
from .siegel import (CandidateSet, SiegelReductionError, builtin_candidates,
                     siegel_membership, siegel_reduce)


class OmegaBasisCoords(NamedTuple):
    """Coefficients of W = a + b Omega in the basis {E_kj} u {E_kj Omega}."""

    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class JacobiCertificate:
    """act_jacobi(gammaJ, reduced) reproduces the input point; ``guarantee``
    is the base reduction's (SiegelCertificate)."""

    reduced: JacobiPoint
    gammaJ: JacobiGroupElement
    on_boundary: bool
    guarantee: str


class POmegaResult(NamedTuple):
    inside: bool
    on_boundary: bool


def phi_omega(p, q, omega: SiegelPoint) -> np.ndarray:
    """The fiber map Phi_Omega(P, Q) = P + Q Omega, for real P and Q
    broadcasting over (..., h, g).  Integer shifts of (P, Q) land on lattice
    shifts of Z, so it maps the flat torus onto the torus of Omega."""
    return p + q @ omega.omega


def decompose_in_omega_basis(w, omega: SiegelPoint) -> OmegaBasisCoords:
    """Split a complex h x g matrix, or a stack (..., h, g) of them, as
    W = a + b Omega with real a, b: the inverse of phi_omega.

    b = V Y^{-1} and a = U - b X; unique because Im(Omega) is invertible.
    """
    u, v = _complex_parts(w)
    b = _lapack(np.linalg.solve, "Im(Omega)", omega.Y.T, v.swapaxes(-1, -2)).swapaxes(-1, -2)
    a = u - b @ omega.X
    return OmegaBasisCoords(a, b)


def in_P_omega(z, omega: SiegelPoint, eps: float = DEFAULT_EPS) -> POmegaResult:
    """Is Z inside the cell P_Omega (coefficients within [0, 1]), and on a
    face of it?"""
    coords = decompose_in_omega_basis(z, omega)
    flat = np.concatenate([coords.a.ravel(), coords.b.ravel()])
    inside = _in_cell(flat, eps)
    return POmegaResult(inside, inside and not _in_cell(flat, -eps))


def _in_cell(flat: np.ndarray, eps: float) -> bool:
    """Are the cell coefficients within [-eps, 1 + eps]?"""
    return bool(np.all(flat >= -eps) and np.all(flat <= 1.0 + eps))


def jacobi_membership(p: JacobiPoint, cands: CandidateSet = None,
                      eps: float = DEFAULT_EPS):
    """Return (member, on_boundary): reduced base and Z in P_Omega, on the
    boundary when the base point or Z is."""
    member, on_boundary = siegel_membership(p.omega, cands, eps)
    cell = in_P_omega(p.Z, p.omega, eps)
    member = member and cell.inside
    return member, member and (on_boundary or cell.on_boundary)


def in_F_gh(p: JacobiPoint, cands: CandidateSet = None,
            eps: float = DEFAULT_EPS) -> bool:
    """Membership in the Jacobi fundamental domain: reduced base, Z in P_Omega."""
    return jacobi_membership(p, cands, eps)[0]


def _lex_smaller(x: np.ndarray, y: np.ndarray) -> bool:
    """Is x lexicographically smaller than y, entries within 1e-12 counting equal?"""
    for xv, yv in zip(x, y):
        if abs(xv - yv) > 1e-12:
            return xv < yv
    return False


def _split_unit(x: np.ndarray):
    """x = n + f, n integral, f in [0, 1) even where x - floor(x) rounds to 1.0."""
    n = np.floor(x)
    f = x - n
    top = f >= 1.0
    return n + top, np.where(top, 0.0, f)


def jacobi_reduce(p: JacobiPoint, cands: CandidateSet = None,
                  eps: float = DEFAULT_EPS) -> JacobiCertificate:
    """Reduce (Omega~, Z~) into the fundamental domain (README "Jacobi
    reduction"); the certificate element maps the reduced point back onto
    the input.  A Z the cocycle carries beyond float range raises
    SiegelReductionError.
    """
    cands = builtin_candidates(p.g) if cands is None else cands
    scert = siegel_reduce(p.omega, cands, eps)
    om = scert.reduced
    gamma = scert.gamma.inverse()      # gamma . om = input omega
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        k = gamma.float_blocks[2] @ om.omega + gamma.float_blocks[3]
        coords = decompose_in_omega_basis(p.Z @ k, om)
    if not (np.isfinite(coords.a).all() and np.isfinite(coords.b).all()):
        raise SiegelReductionError("Z overflows when carried to the reduced base: "
                                   "Z (C Omega + D) is beyond float range")
    mu, afrac = _split_unit(coords.a)
    lam, bfrac = _split_unit(coords.b)
    heis = HeisenbergInt.from_lam_mu(lam, mu)  # integral floats to exact ints
    gj = JacobiGroupElement(gamma, heis)

    # canonical representative of the central pair
    acomp = _split_unit(-afrac)[1]
    bcomp = _split_unit(-bfrac)[1]
    plain = np.concatenate([afrac.ravel(), bfrac.ravel()])
    comp = np.concatenate([acomp.ravel(), bcomp.ravel()])
    if _lex_smaller(comp, plain):
        lam_w = -np.round(bfrac + bcomp)
        mu_w = -np.round(afrac + acomp)
        flip = JacobiGroupElement(
            -SymplecticInt.identity(p.g),
            HeisenbergInt.from_lam_mu(lam_w, mu_w))
        gj = jacobi_mul(gj, flip)
        afrac, bfrac = acomp, bcomp

    reduced = JacobiPoint.from_z(om, phi_omega(afrac, bfrac, om))
    flat = np.concatenate([afrac.ravel(), bfrac.ravel()])
    on_boundary = scert.on_boundary or not _in_cell(flat, -eps)
    return JacobiCertificate(reduced, gj, on_boundary, scert.guarantee)

