"""Shared random generators and independent oracles for the test suite."""

import numpy as np
import pytest

from siegeljacobi.group_core import (HeisenbergInt, JacobiGroupElement,
                                     JacobiPoint, SiegelPoint, SymplecticInt,
                                     act_jacobi, act_siegel)
from siegeljacobi.jacobi_domain import _lex_smaller
from siegeljacobi.siegel import builtin_candidates, siegel_membership


def rand_unimodular(g, rng, steps=6, span=2):
    """Random GL(g, Z) element as a short word of column operations."""
    u = np.eye(g, dtype=int)
    for _ in range(steps):
        if g == 1:
            if rng.random() < 0.5:
                u = -u
            continue
        i, j = rng.choice(g, 2, replace=False)
        u[:, j] += int(rng.integers(-span, span + 1)) * u[:, i]
    return u


def rand_symplectic(g, rng, word_len=5, span=2):
    """Random Sp(g, Z) element as a word in translations, GL embeds, inversions."""
    m = SymplecticInt.identity(g)
    for _ in range(word_len):
        k = rng.integers(0, 3)
        if k == 0:
            s = rng.integers(-span, span + 1, (g, g))
            m = m * SymplecticInt.translation(s + s.T)
        elif k == 1:
            m = m * SymplecticInt.inversion(g)
        else:
            m = m * SymplecticInt.gl_embed(rand_unimodular(g, rng, steps=2, span=span))
    return m


def rand_heisenberg(g, h, rng, span=2):
    return HeisenbergInt.from_lam_mu(rng.integers(-span, span + 1, (h, g)),
                                     rng.integers(-span, span + 1, (h, g)))


def rand_jacobi_element(g, h, rng, word_len=5, span=2):
    x = JacobiGroupElement.identity(g, h)
    from siegeljacobi.group_core import jacobi_mul
    for _ in range(word_len):
        if rng.random() < 0.5:
            step = JacobiGroupElement(rand_symplectic(g, rng, word_len=1, span=span),
                                      HeisenbergInt.identity(g, h))
        else:
            step = JacobiGroupElement(SymplecticInt.identity(g),
                                      rand_heisenberg(g, h, rng, span=span))
        x = jacobi_mul(x, step)
    return x


def rand_pd(g, rng, floor=0.3):
    a = rng.normal(size=(g, g))
    return a @ a.T + floor * np.eye(g)


def rand_siegel_point(g, rng, x_scale=1.0, floor=0.4):
    x = rng.normal(scale=x_scale, size=(g, g))
    return SiegelPoint(0.5 * (x + x.T), rand_pd(g, rng, floor))


def rand_jacobi_point(g, h, rng, **kw):
    z = rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g))
    return JacobiPoint.from_z(rand_siegel_point(g, rng, **kw), z)


def rand_interior_siegel(g, rng, margin=1e-6):
    """Random point strictly inside the fundamental domain."""
    cands = builtin_candidates(g)
    while True:
        d = np.sort(rng.uniform(1.2, 2.6, g))
        y = np.diag(d)
        for i in range(g):
            for j in range(i + 1, g):
                y[i, j] = y[j, i] = rng.uniform(0.02, 0.15)
        x = rng.uniform(-0.42, 0.42, (g, g))
        p = SiegelPoint(0.5 * (x + x.T), y)
        member, boundary = siegel_membership(p, cands, eps=margin)
        if member and not boundary:
            return p


def _frac(x):
    """x mod 1 in [0, 1): a tiny negative x, whose x % 1.0 rounds to 1.0,
    maps to 0.0."""
    f = np.asarray(x, dtype=float) % 1.0
    return np.where(f >= 1.0, 0.0, f)


def canonicalize_cell_coords(a: np.ndarray, b: np.ndarray):
    """Map fractional cell coefficients to the canonical member of the pair."""
    afrac = _frac(a)
    bfrac = _frac(b)
    acomp = _frac(-afrac)
    bcomp = _frac(-bfrac)
    plain = np.concatenate([afrac.ravel(), bfrac.ravel()])
    comp = np.concatenate([acomp.ravel(), bcomp.ravel()])
    if _lex_smaller(comp, plain):
        return acomp, bcomp
    return afrac, bfrac


def rand_interior_jacobi(g, h, rng):
    """Canonical interior point of the Jacobi fundamental domain."""
    base = rand_interior_siegel(g, rng)
    a = rng.uniform(0.08, 0.92, (h, g))
    b = rng.uniform(0.08, 0.92, (h, g))
    a, b = canonicalize_cell_coords(a, b)
    return JacobiPoint.from_z(base, a + b @ base.omega)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def is_plus_minus_identity(m: SymplecticInt) -> bool:
    """Is the symplectic element +I or -I (the kernel of the action)?"""
    return m.is_identity() or (-m).is_identity()


def siegel_density(p: SiegelPoint) -> float:
    """Invariant volume density det(Y)^{-(g+1)} in (x_ij, y_ij) coordinates."""
    return float(np.linalg.det(p.Y) ** (-(p.g + 1)))


def jacobi_density(p: JacobiPoint) -> float:
    """Invariant volume density det(Y)^{-(g+h+1)} in (x, y, u, v) coordinates."""
    return float(np.linalg.det(p.omega.Y) ** (-(p.g + p.h + 1)))


def sl2z_reduce_oracle(tau: complex, eps: float = 1e-9) -> complex:
    """Classical upper-half-plane reduction by translations and inversion."""
    for _ in range(100000):
        tau = complex(tau.real - round(tau.real), tau.imag)
        if abs(tau) ** 2 < 1.0 - eps:
            tau = -1.0 / tau
        else:
            return tau
    raise RuntimeError("classical reduction did not terminate")


def boundary_equivalent(a: complex, b: complex, tol=1e-10, btol=1e-6) -> bool:
    """Equality of reduced points modulo the boundary identifications."""
    reps = {b}
    if abs(abs(b.real) - 0.5) < btol:
        reps.add(complex(b.real - np.sign(b.real), b.imag))
    for r in list(reps):
        if abs(abs(r) - 1.0) < btol:
            inv = -1.0 / r
            reps.add(inv)
            if abs(abs(inv.real) - 0.5) < btol:
                reps.add(complex(inv.real - np.sign(inv.real), inv.imag))
    return any(abs(a - r) < tol for r in reps)


def fd_push_siegel(m, p: SiegelPoint, t, step=1e-4):
    """Finite-difference pushforward of a Siegel tangent (Richardson)."""
    t = np.asarray(t, dtype=complex)

    def diff(s):
        plus = act_siegel(m, SiegelPoint.from_omega(p.omega + s * t)).omega
        minus = act_siegel(m, SiegelPoint.from_omega(p.omega - s * t)).omega
        return (plus - minus) / (2 * s)

    coarse, fine = diff(step), diff(step / 2)
    return (4.0 * fine - coarse) / 3.0


def fd_push_jacobi(x, p: JacobiPoint, t, step=1e-4):
    dom, dz = t
    dom = np.asarray(dom, dtype=complex)
    dz = np.asarray(dz, dtype=complex)

    def at(s):
        om = SiegelPoint.from_omega(p.omega.omega + s * dom)
        return act_jacobi(x, JacobiPoint.from_z(om, p.Z + s * dz))

    def diff(s):
        plus, minus = at(s), at(-s)
        return ((plus.omega.omega - minus.omega.omega) / (2 * s),
                (plus.Z - minus.Z) / (2 * s))

    (co, cz), (fo, fz) = diff(step), diff(step / 2)
    return (4.0 * fo - co) / 3.0, (4.0 * fz - cz) / 3.0


def rand_sym_complex(g, rng):
    t = rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g))
    return 0.5 * (t + t.T)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


#: one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
