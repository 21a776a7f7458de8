"""Spectral basis of the torus attached to a Siegel point.

The lattice L_Omega = Z^(h,g) + Z^(h,g) Omega turns C^(h,g) into a torus
A_Omega; the flat torus T = R^(h,g) x R^(h,g) / (Z x Z) maps onto it by
jacobi_domain.phi_omega(P, Q) = P + Q Omega.  The unit-modulus characters

    E_{Omega;A,B}(Z) = exp(2 pi i (tr(tA U) + tr((B - AX) Y^{-1} tV)))

are L_Omega-periodic, orthonormal for the normalized invariant volume, and
diagonalize the fiber Laplacian with eigenvalue
-pi^2 tr(A Y tA + C Y tC), C = (B - AX) Y^{-1}, validated against finite
differences by the test suite.  Inner products use the trapezoid rule on
[0,1)^{2hg}, exact below the Nyquist frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .group_core import NumericError, SiegelPoint, _check_pair, _lapack
from .intmat import as_imat
from .jacobi_domain import _split_unit, decompose_in_omega_basis, phi_omega

#: cap on dense quadrature work: a grid's points, and points x characters
#: of a table on it (2^22 complex entries are 64 MiB)
MAX_GRID_ENTRIES = 2 ** 22


class QuadratureGridError(NumericError):
    """Dense tensor quadrature too large to allocate."""


def _check_grid(what: str, dim: int, nodes: int, freqs: int = 1) -> None:
    """Refuse, before anything is allocated, nodes^dim grid points times
    freqs^dim characters above MAX_GRID_ENTRIES."""
    if (nodes * freqs) ** min(dim, 64) > MAX_GRID_ENTRIES:  # 2^64 is over the cap
        raise QuadratureGridError(
            "quadrature grid infeasible: %s asks for %d^%d points x %d^%d characters, "
            "over %d entries" % (what, nodes, dim, freqs, dim, MAX_GRID_ENTRIES))


@dataclass(frozen=True)
class FourierIndex:
    """Frequency pair (A, B) of integer h x g matrices."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        for name, m in zip("AB", _check_pair(self.A, self.B, "A and B", dtype=object)):
            m = as_imat(m)
            for ij, v in np.ndenumerate(m):
                if not -2 ** 63 <= v < 2 ** 63:
                    raise ValueError("%s entry %d at %s is beyond int64" % (name, v, ij))
            object.__setattr__(self, name, m.astype(int))


@dataclass(frozen=True)
class TorusPoint:
    """Point of the flat torus, stored by its canonical representative."""

    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        p, q = (_split_unit(m)[1] for m in _check_pair(self.P, self.Q, "P and Q"))
        object.__setattr__(self, "P", p)
        object.__setattr__(self, "Q", q)


def phi_omega_inv(z, omega: SiegelPoint) -> TorusPoint:
    """The flat-torus point of a complex h x g matrix Z: the canonical (P, Q)
    with phi_omega(P, Q, Omega) = Z modulo the lattice."""
    return TorusPoint(*decompose_in_omega_basis(z, omega))


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def _c_matrix(idx: FourierIndex, omega: SiegelPoint) -> np.ndarray:
    """C = (B - AX) Y^{-1}, solved once per (index, Omega): the index keeps the
    last Omega (by identity; points are never mutated) and its C in __dict__."""
    memo = idx.__dict__.get("_c_memo")
    if memo is None or memo[0] is not omega:  # memo holds omega, so its id stays
        memo = omega, _lapack(np.linalg.solve, "Im(Omega)", omega.Y.T,
                              (idx.B - idx.A @ omega.X).T).T
        idx.__dict__["_c_memo"] = memo
    return memo[1]


def eval_E_omega(idx: FourierIndex, z, omega: SiegelPoint) -> np.ndarray:
    """Lattice-periodic character on the torus of Omega at the complex array
    ``z``, broadcasting over (..., h, g); values have unit modulus."""
    z = np.asarray(z, dtype=complex)
    c = _c_matrix(idx, omega)
    phase = (idx.A * z.real).sum(axis=(-2, -1)) + (c * z.imag).sum(axis=(-2, -1))
    return np.exp(2j * np.pi * phase)


def eval_E_torus(idx: FourierIndex, t: TorusPoint) -> np.ndarray:
    """Flat character exp(2 pi i tr(tA P + tB Q)): eval_E_omega at Omega = iI,
    with the same bits."""
    g = idx.A.shape[1]
    return eval_E_omega(idx, t.P + 1j * t.Q, SiegelPoint._of(np.zeros((g, g)), np.eye(g)))


def eigenvalue_E(idx: FourierIndex, omega: SiegelPoint) -> float:
    """Fiber-Laplacian eigenvalue of the character: -pi^2 tr(A Y tA + C Y tC)."""
    y = omega.Y
    c = _c_matrix(idx, omega)
    val = np.trace(idx.A @ y @ idx.A.T) + np.trace(c @ y @ c.T)
    return float(-np.pi ** 2 * val)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def torus_grid(h: int, g: int, n_nodes: int):
    """Uniform tensor grid on [0,1)^{2hg}: arrays (N, h, g) for P and Q."""
    dim = 2 * h * g
    _check_grid("torus_grid(%d, %d, %d)" % (h, g, n_nodes), dim, n_nodes)
    ticks = np.arange(n_nodes) / n_nodes
    axes = np.meshgrid(*([ticks] * dim), indexing="ij")
    flat = np.stack([ax.ravel() for ax in axes], axis=1)
    n = flat.shape[0]
    p = flat[:, :h * g].reshape(n, h, g)
    q = flat[:, h * g:].reshape(n, h, g)
    return p, q


def inner_product(f, g_fun, shape, omega: SiegelPoint, n_nodes: int = 8) -> complex:
    """L^2 inner product (f, g) by trapezoid quadrature on the torus of Omega.

    ``f`` and ``g_fun`` take complex arrays of shape (..., h, g), evaluated
    at Z = phi_omega(P, Q, Omega) over the flat-torus grid, which realizes
    the normalized invariant volume on the torus of Omega by pullback.  The
    flat torus is the torus of Omega = iI, which gives the same bits.
    Exact for band-limited characters when n_nodes exceeds twice the
    largest frequency.
    """
    h, g = shape
    w = phi_omega(*torus_grid(h, g, n_nodes), omega)
    vals = np.asarray(f(w)) * np.conj(np.asarray(g_fun(w)))
    return complex(np.mean(vals))


def character_table(indices, p, q, omega: SiegelPoint) -> np.ndarray:
    """Characters of the torus of Omega on a flat-torus grid: shape (n_indices,
    N).  Omega = iI gives the flat characters, with the same bits."""
    z = phi_omega(p, q, omega)
    return np.stack([eval_E_omega(idx, z, omega) for idx in indices])


def frequency_indices(h: int, g: int, max_freq: int):
    """All FourierIndex pairs with entries in [-max_freq, max_freq]."""
    rng = range(-max_freq, max_freq + 1)
    cells = list(product(rng, repeat=h * g))
    out = []
    for a in cells:
        for b in cells:
            out.append(FourierIndex(np.asarray(a).reshape(h, g),
                                    np.asarray(b).reshape(h, g)))
    return out


@dataclass(frozen=True)
class Expansion:
    """Truncated character expansion with its quadrature L2 residual."""

    indices: tuple
    coefficients: np.ndarray
    residual: float


def truncated_expansion(f, max_freq: int, omega: SiegelPoint, shape,
                        n_nodes: int = None) -> Expansion:
    """Expand f on the torus of Omega over all frequencies up to max_freq.

    Coefficients are quadrature inner products against the characters; the
    residual is the root-mean-square of f minus the reconstruction on the
    same grid, i.e. the L2 truncation error up to quadrature accuracy.
    """
    h, g = shape
    if n_nodes is None:
        n_nodes = 2 * max_freq + 3
    _check_grid("truncated_expansion", 2 * h * g, n_nodes, 2 * max_freq + 1)
    p, q = torus_grid(h, g, n_nodes)
    fvals = np.asarray(f(phi_omega(p, q, omega)))
    indices = frequency_indices(h, g, max_freq)
    table = character_table(indices, p, q, omega)
    coeffs = table.conj() @ fvals / fvals.size
    recon = coeffs @ table
    residual = float(np.sqrt(np.mean(np.abs(fvals - recon) ** 2)))
    return Expansion(tuple(indices), coeffs, residual)
