"""Shared random generators and independent oracles for the test suite."""

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from siegeljacobi.group_core import (HeisenbergInt, JacobiGroupElement,
                                     JacobiPoint, PosDefMatrix, SiegelPoint,
                                     SymplecticInt, act_jacobi, act_siegel)
from siegeljacobi.jacobi_domain import _lex_smaller
from siegeljacobi.geometry import ROW_BLOCK
from siegeljacobi.jsonio import decode_matrix, decode_symplectic, get_field
from siegeljacobi.minkowski import (DEFAULT_EPS, _candidate_arrays, _column_tables,
                                    membership_mask)
from siegeljacobi.siegel import (CandidateSet, _det_sq_batch, builtin_candidates,
                                 det_sq, encode_candidates, siegel_membership)


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


def decode_jacobi_element(obj, where="gammaJ"):
    """The Jacobi group element of a report's "gammaJ" (the CLI writes one
    and never reads it back), with both relations checked."""
    m = decode_symplectic(obj, where)
    heis = HeisenbergInt(*(decode_matrix(get_field(obj, name, where), "%s.%s" % (where, name))
                           for name in ("lambda", "mu", "kappa")))
    return JacobiGroupElement(m, heis)


def write_candidates(cands, path):
    """Write a candidate set as the JSON file that load_candidates and
    --candidates read."""
    Path(path).write_text(json.dumps(encode_candidates(cands)))


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


#: valid Y = t(U) (A tA + cI) U with entries in the thousands: the product
#: t(U) Y U is symmetric only to about 1e-9 relative, so minkowski_reduce
#: used to fail its own output's symmetry check ("PosDefMatrix not symmetric")
SKEWED_YS = (np.array([[6830.957763578616, -4767.591793908003],
                       [-4767.591793908003, 3327.4888898907666]]),
             np.array([[326959.43819698, -138823.51886435],
                       [-138823.51886435, 58942.9976294]]))

#: positive definite (eigenvalues 9.8e-6, 9.5e-3, 7.3e6; cond 7.4e11): an LLL
#: that re-forms and re-factors the float Gram matrix t(U) Y U after every move
#: loses definiteness on it
DEFINITENESS_LOSS_Y = np.array(
    [[158113.80549163386, 474210.9958881108, -948420.6835723383],
     [474210.9958881108, 1422241.9214038355, -2844479.9184445534],
     [-948420.6835723383, -2844479.9184445534, 5688951.988230048]])

@lru_cache(maxsize=None)
def ill_conditioned_ys(seed=5, n=600, max_cond=1e15):
    """Seeded positive definite Y, g = 2-4, with cond(Y) up to max_cond:
    Q diag(d) t(Q) with log10 d uniform on [-8, 8], in a basis scrambled by
    rand_unimodular; draws above max_cond, or refused by PosDefMatrix, are
    redrawn.  Beyond about 1/u = 4.5e15 a float Y no longer fixes its
    lattice, so any two float LLLs may part there."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        g = int(rng.integers(2, 5))
        q = np.linalg.qr(rng.normal(size=(g, g)))[0]
        u = rand_unimodular(g, rng, steps=8, span=3).astype(float)
        y = u.T @ (q * 10.0 ** rng.uniform(-8, 8, g)) @ q.T @ u
        y = 0.5 * (y + y.T)
        if np.linalg.cond(y) > max_cond:
            continue
        try:
            out.append(PosDefMatrix(y).entries)
        except ValueError:
            pass
    return tuple(out)


#: the indices of ill_conditioned_ys(max_cond=1e18) that minkowski_reduce
#: does not reduce, with the cause its ReductionError names; the other 590
#: reduce.  Each is accepted input of cond 1.1e16 to 2.2e17; 207 is g = 4.
HARD_YS = {207: "lost definiteness", 425: "lost definiteness", 521: "lost definiteness",
           173: "iteration cap", 183: "iteration cap", 194: "iteration cap",
           221: "iteration cap", 278: "iteration cap", 552: "iteration cap",
           239: "stalled"}


#: (X, Y) of a point the decoder accepts (cond(Y) = 130) that loses the
#: definiteness of Im(Omega) inside a highest-point step; sjk used to exit 2
#: on it, as on bad input
STEP_DEFINITENESS_LOSS = (np.array([[-0.00136, 0.000634], [0.000634, -0.00108]]),
                          np.array([[7.24e-147, 2.69e-146], [2.69e-146, 8.22e-145]]))

#: Z near 1e29: its Heisenberg parts lambda, mu are far beyond int64
HUGE_Z_POINT = JacobiPoint.from_z(
    SiegelPoint.from_omega(np.array([[0.1, 0.05], [0.05, -0.2]])
                           + 1j * np.array([[1.3, 0.4], [0.4, 1.5]])),
    np.array([[3.7e29 + 2e29j, 1.1e29 + 0.3j]]))

#: a point the decoder accepts whose Z the cocycle Z (C Omega + D) of its
#: base reduction carries beyond float range
OVERFLOW_Z_POINT = JacobiPoint.from_z(SiegelPoint.from_omega([[0.1 + 1e-10j]]), [[1e300j]])

#: (X, Y) of a point the decoder accepts whose GL move t(U) X U overflows
GL_OVERFLOW = (8e307 * np.eye(2), 4.0 * np.array([[1.0, 0.6], [0.6, 1.0]]))

#: (X, Y) of a g = 3 point whose first candidate step fails act_siegel's
#: condition guard: C Omega + D is near singular at this scale
ILL_CONDITIONED_STEP = (np.zeros((3, 3)),
                        1e-120 * (np.eye(3) + 0.3 * (np.ones((3, 3)) - np.eye(3))))

#: a g = 3 member whose |det(C Omega + D)|^2 overflow for the r >= 2
#: subset inversions: 1e440 and 1e660
OVERFLOW_DET_Y = 1e110 * np.eye(3)

#: |det|^2 = 0.9999999989999999 sits between the step's old threshold
#: 1/(1 + 1e-9) and membership's 1 - 1e-9: no step fired, and reduction
#: stalled on a non-member
STALL_OMEGA = 0.9999999995j


def siegel_flags_oracle(p: SiegelPoint, cands=None, eps=DEFAULT_EPS):
    """(member, on_boundary) from the inequalities one at a time: a member
    is on the boundary when some |det(C Omega + D)|^2 is within eps of 1,
    some |x_ij| within eps of 1/2, some (M.1) form a Y t(a) with a != +-e_k
    within eps of y_kk, or some y_{k,k+1} within eps of 0.  The (M.1) forms
    run over the box max|a_i| <= 3, not the library's {0, +-1} vectors."""
    dets = det_sq((builtin_candidates(p.g) if cands is None else cands).certifying,
                  p.omega)
    x, y, g = p.X, p.Y, p.g
    vecs, tails = _candidate_arrays(g, 3)
    unit = np.abs(vecs).sum(axis=1) == 1
    m1 = []
    for k in range(g):
        a = vecs[tails[:, k] & ~(unit & (vecs[:, k] != 0))]
        m1.append(np.einsum("ni,ij,nj->n", a, y, a) - y[k, k])
    m1 = np.concatenate(m1)
    m2 = y[np.arange(g - 1), np.arange(1, g)]
    member = bool(np.all(dets >= 1.0 - eps) and np.max(np.abs(x)) <= 0.5 + eps
                  and np.all(m1 >= -eps) and np.all(m2 >= -eps))
    slack = np.concatenate([np.abs(dets - 1.0), np.abs(np.abs(x.ravel()) - 0.5),
                            np.abs(m1), np.abs(m2)])
    return member, member and bool(np.min(slack) <= eps)


def onto_minkowski_faces(xs, ys):
    """Each Y moved along the face's normal onto each (M.1) face
    a Y t(a) = y_kk of the mask's table, and onto each (M.2) face
    y_{k,k+1} = 0."""
    g = ys.shape[-1]
    out_x, out_y = [], []
    for k, (vecs, _) in enumerate(_column_tables(g)):
        for a in vecs:
            normal = np.outer(a, a)
            normal[k, k] -= 1.0
            form = np.einsum("i,nij,j->n", a, ys, a) - ys[:, k, k]
            out_y.append(ys - (form / np.sum(normal * normal))[:, None, None] * normal)
            out_x.append(xs)
    for k in range(g - 1):
        y = ys.copy()
        y[:, k, k + 1] = y[:, k + 1, k] = 0.0
        out_y.append(y)
        out_x.append(xs)
    return np.concatenate(out_x), np.concatenate(out_y)


def membership_mask_oracle(xs, ys, cands, eps=DEFAULT_EPS):
    """Membership as one pass of every test over every point: the X box and
    the Minkowski mask on the whole batch, then every certifying |det|^2,
    from monomials stacked as written, on the points that pass both,
    ROW_BLOCK at a time.  membership_mask_points must equal it bit for bit."""
    cands = cands.certifying
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ok = np.max(np.abs(xs), axis=(1, 2)) <= 0.5 + eps
    ok &= membership_mask(ys, eps=eps)
    live = np.nonzero(ok)[0]
    for start in range(0, live.size, ROW_BLOCK):
        rows = live[start:start + ROW_BLOCK]
        vals = _stacked_det_sq(cands, xs[rows], ys[rows])
        ok[rows] = vals.min(axis=0, initial=np.inf) >= 1.0 - eps
    return ok


def _stacked_det_sq(cands, xs, ys):
    if cands.g >= 3:
        return _det_sq_batch(cands, xs, ys)
    n = xs.shape[0]
    one, zero = np.ones(n), np.zeros(n)
    if cands.g == 1:
        fr, fi = np.stack([xs[:, 0, 0], one]), np.stack([ys[:, 0, 0], zero])
    else:
        x11, x12, x22 = xs[:, 0, 0], xs[:, 0, 1], xs[:, 1, 1]
        y11, y12, y22 = ys[:, 0, 0], ys[:, 0, 1], ys[:, 1, 1]
        fr = np.stack([x11 * x22 - x12 * x12 - y11 * y22 + y12 * y12, x11, x12, x22, one])
        fi = np.stack([x11 * y22 + y11 * x22 - 2.0 * x12 * y12, y11, y12, y22, zero])
    re, im = cands.det_table @ fr, cands.det_table @ fi
    return re * re + im * im


@lru_cache(maxsize=None)
def gottschling_surface_points(seed=0, n=600, keep=60, generations=25):
    """For each of Gottschling's 19 rows k (in certifying order), a point on
    its own surface |det_k|^2 = 1 where the other 18 rows, the X box and the
    Minkowski conditions hold strictly.

    A candidate is (X, Y) with |x_ij| < 1/2 and 0 < 2 y12 < y11 = 1 < y22
    (the g = 2 Minkowski cone); scaling Y by the t that bisection finds puts
    it on the surface.  The population keeps the candidates whose smallest
    slack to every other condition is largest and mutates them.  Returns
    (slack, X, Y below, Y above) per row, with |det_k|^2 = 1 -+ 5e-13 at the
    two Y: far enough from 1 that no rounding of the products moves them
    across it, and within 1e-12 of the surface.
    """
    cert = builtin_candidates(2).certifying
    rng = np.random.default_rng(seed)

    def points(u):
        x = 0.5 * np.tanh(u[:, :3])
        y12, y22 = 0.5 / (1.0 + np.exp(-u[:, 4])), 1.0 + np.exp(u[:, 3])
        xs = np.stack([np.stack([x[:, 0], x[:, 2]], -1), np.stack([x[:, 2], x[:, 1]], -1)], -2)
        ys = np.stack([np.stack([np.ones(len(u)), y12], -1), np.stack([y12, y22], -1)], -2)
        return xs, ys

    def onto_surface(row, xs, ys, steps, level=1.0):
        def value(t):
            return _det_sq_batch(row, xs, ys * t[:, None, None])[0] - level
        lo, hi = np.full(len(xs), 1e-2), np.full(len(xs), 1e2)
        bracket = (value(lo) < 0) & (value(hi) >= 0)
        for _ in range(steps):
            mid = np.sqrt(lo * hi)
            below = value(mid) < 0
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return bracket, ys * hi[:, None, None]

    out = []
    for k in range(len(cert)):
        row = CandidateSet(2, cert.elements[k:k + 1])
        others = CandidateSet(2, cert.elements[:k] + cert.elements[k + 1:])
        u = rng.normal(size=(n, 5)) * [1.0, 1.0, 1.0, 1.5, 2.0]
        step = 0.3
        for _ in range(generations):
            xs, ys = points(u)
            bracket, ys = onto_surface(row, xs, ys, 30)
            y11, y12, y22 = ys[:, 0, 0], ys[:, 0, 1], ys[:, 1, 1]
            slack = np.min([_det_sq_batch(others, xs, ys).min(axis=0) - 1.0,
                            0.5 - np.abs(xs).max(axis=(1, 2)),
                            y12, y11 - 2.0 * y12, y22 - y11], axis=0)
            slack = np.where(bracket, slack, -np.inf)
            parents = u[np.argsort(-slack)[:keep]]
            best = slack.max()
            u = parents[rng.integers(0, keep, n)] + step * rng.normal(size=(n, 5))
            u[:keep] = parents
            step *= 0.9
        xs, ys = points(parents[:1])
        below, above = (onto_surface(row, xs, ys, 80, 1.0 + d)[1][0] for d in (-5e-13, 5e-13))
        out.append((float(best), xs[0], below, above))
    return tuple(out)


def cell_face_oracle(flat, eps=DEFAULT_EPS) -> bool:
    """Is some cell coefficient within eps of a face, 0 or 1?"""
    flat = np.asarray(flat)
    return bool(np.any(np.minimum(np.abs(flat), np.abs(flat - 1.0)) <= eps))


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
