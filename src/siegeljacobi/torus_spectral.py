"""Spectral basis of the torus attached to a Siegel point.

The lattice L_Omega = Z^(h,g) + Z^(h,g) Omega turns C^(h,g) into a torus
A_Omega; the flat torus T = R^(h,g) x R^(h,g) / (Z x Z) maps onto it by
Phi_Omega(P + iQ) = (P + QX) + iQY.  The unit-modulus characters

    E_{Omega;A,B}(Z) = exp(2 pi i (tr(tA U) + tr((B - AX) Y^{-1} tV)))

are L_Omega-periodic, orthonormal for the normalized invariant volume, and
diagonalize the fiber Laplacian with eigenvalue
-pi^2 tr(A Y tA + C Y tC), C = (B - AX) Y^{-1}.  The eigenvalue is not a
quoted constant: the test suite validates it against finite differences of
the operator before anything ships.

All inner products use the tensor-product trapezoid rule on [0,1)^{2hg},
which is exact for trigonometric polynomials below the Nyquist frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .group_core import SiegelPoint, _check_pair, _complex_parts
from .intmat import as_imat
from .jacobi_domain import _split_unit, decompose_in_omega_basis

#: hard cap on the tensor quadrature dimension 2*h*g
MAX_GRID_DIM = 8


class QuadratureGridError(ValueError):
    """Tensor quadrature dimension too large for a dense grid."""


@dataclass(frozen=True)
class FourierIndex:
    """Frequency pair (A, B) of integer h x g matrices."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        a, b = _check_pair(self.A, self.B, "A and B", dtype=object)
        object.__setattr__(self, "A", as_imat(a).astype(int))
        object.__setattr__(self, "B", as_imat(b).astype(int))

    @property
    def h(self) -> int:
        return self.A.shape[0]

    @property
    def g(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class TorusPoint:
    """Point of the flat torus, stored by its canonical representative."""

    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        p, q = (_split_unit(m)[1] for m in _check_pair(self.P, self.Q, "P and Q"))
        object.__setattr__(self, "P", p)
        object.__setattr__(self, "Q", q)

    @property
    def w(self) -> np.ndarray:
        return self.P + 1j * self.Q


@dataclass(frozen=True)
class AbelianPoint:
    """Point Z = U + iV of the torus C^(h,g) / L_Omega (a chosen lift)."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        u, v = _check_pair(self.U, self.V, "U and V")
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "V", v)

    @classmethod
    def from_z(cls, z) -> "AbelianPoint":
        return cls(*_complex_parts(z))

    @property
    def Z(self) -> np.ndarray:
        return self.U + 1j * self.V


# ---------------------------------------------------------------------------
# Riemann conditions and the torus diffeomorphism
# ---------------------------------------------------------------------------

def riemann_conditions(omega: SiegelPoint):
    """Residuals of the two period-matrix conditions for (I, Omega).

    Returns (residual1, min_eig2): the max-abs entry of the alternating-form
    product (zero for symmetric Omega) and the smallest eigenvalue of the
    Hermitian positivity matrix (equal to 2 Im Omega).
    """
    om = omega.omega
    g = omega.g
    rc1 = -om + om.T
    herm = (-1.0 / 1j) * (-om + om.conj().T)
    herm = 0.5 * (herm + herm.conj().T)
    eig = np.linalg.eigvalsh(herm)
    residual1 = float(np.max(np.abs(rc1))) if g else 0.0
    return residual1, float(eig[0])


def phi_omega(t, omega: SiegelPoint) -> AbelianPoint:
    """Torus diffeomorphism (P, Q) -> (P + QX) + i QY.

    Accepts a TorusPoint or a raw (P, Q) pair of lifts; integer shifts of
    (P, Q) land on lattice shifts of the image, so the map descends to the
    quotients.
    """
    if isinstance(t, TorusPoint):
        p, q = t.P, t.Q
    else:
        p, q = (np.asarray(m, dtype=float) for m in t)
    return AbelianPoint(*_phi_parts(p, q, omega))


def _phi_parts(p, q, omega: SiegelPoint):
    """(U, V) = (P + QX, QY), the real and imaginary parts of Phi_Omega."""
    return p + q @ omega.X, q @ omega.Y


def phi_omega_inv(z: AbelianPoint, omega: SiegelPoint) -> TorusPoint:
    """Inverse diffeomorphism (U, V) -> (U - V Y^{-1} X) + i V Y^{-1}."""
    return TorusPoint(*decompose_in_omega_basis(z.Z, omega))


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def eval_E_torus(idx: FourierIndex, p, q=None) -> np.ndarray:
    """Flat character exp(2 pi i tr(tA P + tB Q)); broadcasts over (..., h, g)."""
    if q is None:
        p, q = p.P, p.Q
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    phase = np.sum(idx.A * p, axis=(-2, -1)) + np.sum(idx.B * q, axis=(-2, -1))
    return np.exp(2j * np.pi * phase)


def _c_matrix(idx: FourierIndex, omega: SiegelPoint) -> np.ndarray:
    return np.linalg.solve(omega.Y.T, (idx.B - idx.A @ omega.X).T).T


def eval_E_omega(idx: FourierIndex, z, omega: SiegelPoint = None) -> np.ndarray:
    """Lattice-periodic character on the torus of Omega.

    ``z`` may be an AbelianPoint or a complex array broadcasting over
    (..., h, g); values have unit modulus.
    """
    if isinstance(z, AbelianPoint):
        u, v = z.U, z.V
    else:
        z = np.asarray(z, dtype=complex)
        u, v = z.real, z.imag
    c = _c_matrix(idx, omega)
    phase = np.sum(idx.A * u, axis=(-2, -1)) + np.sum(c * v, axis=(-2, -1))
    return np.exp(2j * np.pi * phase)


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
    if dim > MAX_GRID_DIM:
        raise QuadratureGridError(
            "quadrature grid infeasible: 2*h*g = %d > %d; "
            "use a Monte Carlo flag instead" % (dim, MAX_GRID_DIM))
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
    at Z = Phi_Omega(W) over the flat torus in W = P + iQ, which realizes
    the normalized invariant volume on the torus of Omega by pullback.  The
    flat torus is the torus of Omega = iI, which gives the same bits.
    Exact for band-limited characters when n_nodes exceeds twice the
    largest frequency.
    """
    h, g = shape
    p, q = torus_grid(h, g, n_nodes)
    u, v = _phi_parts(p, q, omega)
    w = u + 1j * v
    vals = np.asarray(f(w)) * np.conj(np.asarray(g_fun(w)))
    return complex(np.mean(vals))


def character_table(indices, p, q, omega: SiegelPoint) -> np.ndarray:
    """Characters of the torus of Omega on a flat-torus grid: shape (n_indices,
    N).  Omega = iI gives the flat characters, with the same bits."""
    u, v = _phi_parts(p, q, omega)
    z = u + 1j * v
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
    p, q = torus_grid(h, g, n_nodes)
    u, v = _phi_parts(p, q, omega)
    z = u + 1j * v
    fvals = np.asarray(f(z))
    indices = frequency_indices(h, g, max_freq)
    table = character_table(indices, p, q, omega)
    coeffs = table.conj() @ fvals / fvals.size
    recon = coeffs @ table
    residual = float(np.sqrt(np.mean(np.abs(fvals - recon) ** 2)))
    return Expansion(tuple(indices), coeffs, residual)
