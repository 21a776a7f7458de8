"""Invariant metrics, Laplacians and volume computations.

Metrics are evaluated from their polarized closed forms (trace polynomials),
for one pair of tangents or for stacks of them.  Tangents are plain arrays: a
real symmetric H on the cone, a complex symmetric dOmega on the Siegel space
and a pair (dOmega, dZ) on the Siegel-Jacobi space; symmetry is the caller's
to ensure (``sjk metric-eval`` checks the tangents it reads).  Laplacians are
applied to user-supplied functions by central second differences along the
principal directions of each operator's coefficient matrix S, frozen at the
point, with Richardson extrapolation over step and step/2.  Every operator's
S is scale x inv(G), with G the matrix of its invariant metric in the real
chart from one stacked metric call: the Siegel, fiber and Siegel-Jacobi
operators are Laplace-Beltrami operators of Kaehler metrics, and the cone
operator adds a first-order term.  Volumes of the g = 1 and g = 2 fundamental
domains come from deterministic quadrature and importance-sampled Monte Carlo
respectively.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import pi
from types import MappingProxyType

import numpy as np
from numpy.polynomial.legendre import leggauss

from .group_core import (JacobiGroupElement, JacobiPoint, SiegelPoint,
                         _blocks_float, _check_posdef, as_pd_array)
from .intmat import to_float
from .minkowski import DEFAULT_EPS
from .siegel import CandidateSet, builtin_candidates, membership_mask_points

DEFAULT_FD_STEP = 1e-3

#: closed-form volumes of the first two Siegel fundamental domains
VOLUME_TARGETS = {1: pi / 3.0, 2: pi ** 3 / 270.0}

#: Monte Carlo samples per chunk.  Fixed, not a parameter: chunk i draws its
#: samples from the (seed, i) stream, so the chunk size decides which samples
#: a seed yields, and with them every estimate.
MC_CHUNK = 500_000

#: samples a chunk builds, masks and weighs at a time: cache sized, measured.
#: On a 2 MiB-L2-per-core Xeon a g = 2 chunk ran equally fast at 4,096 to
#: 16,384, 10-15 % slower at 2,048 and 32,768, and 25 % slower at 65,536.
#: No answer depends on it.
ROW_BLOCK = 8_192


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _tr_prod(a, b):
    """tr(a @ b) over the last two axes, without forming the product."""
    return np.einsum("...ij,...ji->...", a, b)


def _real(t):
    """Real part; a float for one pair of tangents."""
    t = np.real(t)
    return float(t) if t.ndim == 0 else t


def _tp(m):
    """Transpose over the last two axes."""
    return np.swapaxes(m, -1, -2)


def metric_p(y, t1, t2):
    """Polarization of ds^2 = tr((Y^{-1} dY)^2) on the positive cone.

    Accepts stacks of tangents, whose leading axes broadcast; one pair of
    tangents gives a float.
    """
    y = np.asarray(y, dtype=float)
    h1, h2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    yi = np.linalg.inv(y)
    return _real(_tr_prod(yi @ h1 @ yi, h2))


def metric_siegel(p: SiegelPoint, t1, t2):
    """Polarization of ds^2 = tr(Y^{-1} dOmega Y^{-1} conj(dOmega)).

    Accepts stacks of tangents, whose leading axes broadcast; one pair of
    tangents gives a float.
    """
    d1, d2 = np.asarray(t1, dtype=complex), np.asarray(t2, dtype=complex)
    yi = np.linalg.inv(p.Y)
    return _real(_tr_prod(yi @ d1 @ yi, d2.conj()))


def metric_jacobi(p: JacobiPoint, t1, t2):
    """Polarized Kaehler metric on the Siegel-Jacobi space (four trace terms).

    Accepts stacks of tangents, whose leading axes broadcast; one pair of
    tangents gives a float.
    """
    do1, dz1, do2, dz2 = (np.asarray(t, dtype=complex) for t in (*t1, *t2))
    y, v = p.omega.Y, p.V
    yi = np.linalg.inv(y)
    base = _tr_prod(yi @ do1 @ yi, do2.conj())
    twist = _tr_prod(yi @ v.T @ v @ yi @ do1 @ yi, do2.conj())
    fiber = _tr_prod(yi @ _tp(dz1), dz2.conj())
    cross = (_tr_prod(v @ yi @ do1 @ yi, _tp(dz2.conj()))
             + _tr_prod(v @ yi @ do2 @ yi, _tp(dz1.conj())))
    return _real(base + twist + fiber - cross)


def metric_fiber(omega: SiegelPoint, t1, t2):
    """Kaehler metric tr((Im Omega)^{-1} t(dZ) conj(dZ)) on the fiber torus.

    This is the dZ-only restriction of the full Siegel-Jacobi metric; it is
    invariant under the group action at fixed base point, with the fiber
    tangent pushing forward by dZ -> dZ (C Omega + D)^{-1}.  Accepts stacks
    of tangents, whose leading axes broadcast; one pair of tangents gives a
    float.
    """
    d1 = np.asarray(t1, dtype=complex)
    d2 = np.asarray(t2, dtype=complex)
    yi = np.linalg.inv(omega.Y)
    return _real(_tr_prod(yi @ _tp(d1), d2.conj()))


def push_tangent_p(gmat, t):
    """Pushforward of a cone tangent along Y -> g Y t(g)."""
    gmat = np.asarray(gmat, dtype=float)
    return gmat @ np.asarray(t, dtype=float) @ gmat.T


def push_tangent_siegel(m, p: SiegelPoint, t):
    """Analytic differential of the Moebius action: t(K)^{-1} dOmega K^{-1}."""
    _, _, c, d = _blocks_float(m)
    k = c @ p.omega + d
    ki = np.linalg.inv(k)
    return ki.T @ np.asarray(t, dtype=complex) @ ki


def push_tangent_jacobi(x: JacobiGroupElement, p: JacobiPoint, t):
    """Analytic differential of the Jacobi action on (dOmega, dZ)."""
    dom, dz = (np.asarray(b, dtype=complex) for b in t)
    c, d = to_float(x.m.C), to_float(x.m.D)
    lam, mu = to_float(x.heis.lam), to_float(x.heis.mu)
    omega = p.omega.omega
    k = c @ omega + d
    ki = np.linalg.inv(k)
    z_new = (p.Z + lam @ omega + mu) @ ki
    dom_new = ki.T @ dom @ ki
    dz_new = (dz + lam @ dom) @ ki - z_new @ c @ dom @ ki
    return dom_new, dz_new


# ---------------------------------------------------------------------------
# Laplacians by finite differences
# ---------------------------------------------------------------------------

def _sym_pairs(g):
    return [(a, b) for a in range(g) for b in range(a, g)]


#: moving blocks of the point, in chart order, per operator kind
_CHART_BLOCKS = {"P": "Y", "siegel": "XY", "jacobi": "XYUV", "omega": "UV"}


@lru_cache(maxsize=None)
def _chart_layout(kind, g, h):
    """``slices``, ``coord_id`` and ``basis`` of a _Chart, which depend only on
    (kind, g, h); every chart of that shape shares them, so all are read-only."""
    slices, coord_id, ones = {}, {}, []
    start = 0
    for block in _CHART_BLOCKS[kind]:
        sym = block in "XY"
        rows = g if sym else h
        slices[block] = slice(start, start + rows * g)
        for a, b in (_sym_pairs(g) if sym else np.ndindex(rows, g)):
            coord_id[(block, a, b)] = len(ones)
            ones.append((start + a * g + b, start + (b * g + a if sym else a * g + b)))
        start += rows * g
    basis = np.zeros((len(ones), start))
    basis[np.arange(len(ones))[:, None], ones] = 1.0
    basis.flags.writeable = False
    return MappingProxyType(slices), MappingProxyType(coord_id), basis


class _Chart:
    """Real coordinate chart around the evaluation point of one operator kind.

    Coordinate i moves one symmetric (X or Y) entry pair or one U or V entry;
    ``coord_id`` maps (block, a, b) to i, and there are ``d`` coordinates.
    The moving blocks are held as one flat vector ``base`` (blocks in chart
    order, each raveled), and row i of ``basis`` is coordinate i's
    displacement of that vector; the layout (``slices``, ``coord_id``,
    ``basis``) is built once per (kind, g, h).  ``point`` is the point as given.
    """

    def __init__(self, kind, point):
        if kind not in _CHART_BLOCKS:
            raise ValueError("unknown operator kind %r" % kind)
        self.kind, self.point = kind, point
        if kind == "P":
            self.y = as_pd_array(point)
        elif kind == "siegel":
            self.x, self.y = point.X, point.Y
        else:
            self.x, self.y = point.omega.X, point.omega.Y
            self.u, self.v = point.U, point.V
        blocks = _CHART_BLOCKS[kind]
        h = self.u.shape[0] if "U" in blocks else 0
        self.base = np.concatenate([getattr(self, b.lower()).ravel()
                                    for b in blocks]).astype(float)
        self.slices, self.coord_id, self.basis = _chart_layout(kind, self.y.shape[0], h)
        self.d = len(self.basis)

    def tangents(self, blocks):
        """Stack of the d coordinate tangents to one block: the real dY for
        ``blocks`` "Y", the complex dOmega = dX + i dY for "XY" and
        dZ = dU + i dV for "UV"."""
        t = self.basis[:, self.slices[blocks[0]]]
        if len(blocks) == 2:
            t = t + 1j * self.basis[:, self.slices[blocks[1]]]
        return t.reshape(self.d, -1, self.y.shape[0])

    def cid(self, block, a, b):
        if block in ("X", "Y") and a > b:
            a, b = b, a
        return self.coord_id[(block, a, b)]

    def evaluator(self, f):
        """``f`` at the point moved by one flat displacement of ``base``.

        ``None`` is the point itself; every displacement that moves Y checks
        that Y stays positive definite.
        """
        kind, base, sl = self.kind, self.base, self.slices
        g = self.y.shape[0]
        sy = sl.get("Y")
        fiber = self.u.shape if kind in ("jacobi", "omega") else None

        def at(disp):
            s = base if disp is None else base + disp
            if sy is not None:
                y = s[sy].reshape(g, g)
                if disp is not None and disp[sy].any():
                    _check_posdef(y, "finite-difference stencil leaves the domain: Im part")
            if kind == "P":
                return f(y)
            if kind == "siegel":
                return f(s[sl["X"]].reshape(g, g) + 1j * y)
            z = s[sl["U"]].reshape(fiber) + 1j * s[sl["V"]].reshape(fiber)
            if kind == "omega":
                return f(z)
            return f(s[sl["X"]].reshape(g, g) + 1j * y, z)

        return at


def _operator_terms(kind, chart):
    """Real symmetric second-order coefficients S (d x d), with the operator
    sum_(i,j) S_ij d_i d_j, and the first-order table {i: b_i}."""
    # Every second-order part is sum G^{ij} d_i d_j up to a scale: for the
    # Kaehler kinds the Laplace-Beltrami operator in the holomorphic-splitting
    # chart (x, y, u, v), for the cone the second-order part of tr((Y d/dY)^2).
    # So S is scale x inv(G), G taken with one stacked call over the chart
    # tangents (1 or i) x (unit matrix) of every coordinate.  (The printed
    # five-trace form of the Jacobi operator agrees only at g = 1;
    # tests/test_geometry.py keeps it.)  Each metric is called by its module
    # name, not through a table, so a wrapper installed on the module by a
    # profiler sees the call.
    if kind == "P":
        t = chart.tangents("Y")
        gm, scale = metric_p(chart.y, t[:, None], t[None]), 1.0
    elif kind == "siegel":
        t = chart.tangents("XY")
        gm, scale = metric_siegel(chart.point, t[:, None], t[None]), 1.0
    elif kind == "omega":
        t = chart.tangents("UV")
        gm, scale = metric_fiber(chart.point.omega, t[:, None], t[None]), 0.25
    else:
        dom, dz = chart.tangents("XY"), chart.tangents("UV")
        gm, scale = metric_jacobi(chart.point, (dom[:, None], dz[:, None]),
                                  (dom[None], dz[None])), 1.0
    s = scale * np.linalg.inv(gm)
    first = _cone_first_order(chart) if kind == "P" else {}
    return 0.5 * (s + s.T), first   # inv(G) is symmetric only up to rounding


def _cone_first_order(chart):
    """First-order part (g+1)/2 tr(Y d/dY) of the cone operator, the one kind
    that has one: d/dY halves the off-diagonal derivatives, and y_ab and y_ba
    both move coordinate y_ab, a <= b, whose coefficient is (g+1)/2 y_ab."""
    y = chart.y
    g = y.shape[0]
    return {chart.cid("Y", a, b): 0.5 * (g + 1) * y[a, b] for a, b in _sym_pairs(g)}


def _apply_once(at, second_dirs, first_dirs, step):
    """One stencil application at one step: ``second_dirs`` holds
    (sign lambda_k, sqrt|lambda_k| q_k), ``first_dirs`` (b_i, coordinate i)."""
    f0 = at(None)
    total = 0j
    for sign, disp in second_dirs:
        total += sign * (at(step * disp) - 2 * f0 + at(-step * disp)) / step ** 2
    for b, disp in first_dirs:
        total += b * (at(step * disp) - at(-step * disp)) / (2 * step)
    return total


def laplacian_apply(kind: str, f, point, fd_step: float = DEFAULT_FD_STEP) -> complex:
    """Apply one of the invariant Laplacians to a function at a point.

    Kinds and the matching signature of ``f``:

    * ``"P"``      cone operator tr((Y d/dY)^2);            f(Y)
    * ``"siegel"`` 4 tr(Y t(Y d/dOmegabar) d/dOmega);       f(omega)
    * ``"jacobi"`` the Laplace-Beltrami operator of the
      invariant Kaehler metric;                             f(omega, z)
    * ``"omega"``  tr(Im(Omega) d/dZ t(d/dZbar)), the fiber
      operator at fixed Omega (no factor 4, as printed);    f(z)

    Each operator is sum S_ij d_i d_j + sum b_i d_i in the real chart, with
    coefficients frozen at the point.  The second-order part is applied along
    the eigenvectors q_k of its symmetric coefficient matrix S = Q Lambda tQ:
    with w_k = sqrt|lambda_k| q_k it is
    sum sign(lambda_k) (f(p + h w_k) - 2 f(p) + f(p - h w_k)) / h^2.  For
    every kind S = scale x inv(G), scale 1/4 for "omega" and 1 otherwise,
    where G is the matrix of the invariant metric in the chart from one
    stacked metric call; so ``fd_step`` h is a length in that metric (half of
    one for "omega"), and a chart of dimension d costs 2d + 1 evaluations per
    step.  Only the cone operator has first-order terms, applied as coordinate
    central differences of step h.  The step and half-step values are
    Richardson-extrapolated, giving O(step^4) truncation error.
    """
    chart = _Chart(kind, point)
    s, first = _operator_terms(kind, chart)
    lam, q = np.linalg.eigh(s)
    # one step length along every q_k leaves a rounding error that grows with
    # trace(S); scaling q_k by sqrt|lambda_k| makes it grow with d instead
    second_dirs = list(zip(np.sign(lam), (np.sqrt(np.abs(lam)) * q).T @ chart.basis))
    first_dirs = [(b, chart.basis[i]) for i, b in first.items() if b != 0]
    at = chart.evaluator(f)
    coarse = _apply_once(at, second_dirs, first_dirs, fd_step)
    fine = _apply_once(at, second_dirs, first_dirs, fd_step / 2)
    return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------

def volume_f1(n_nodes: int = 64) -> float:
    """Volume of the g=1 fundamental domain by Gauss-Legendre quadrature.

    The y-integral of y^{-2} is analytic, leaving the smooth profile
    1/sqrt(1 - x^2) over x in [-1/2, 1/2]; the exact value is pi/3.
    """
    nodes, weights = leggauss(n_nodes)
    x = 0.5 * nodes
    w = 0.5 * weights
    return float(np.sum(w / np.sqrt(1.0 - x * x)))


@dataclass(frozen=True)
class VolumeEstimate:
    estimate: float
    stderr: float
    n_samples: int
    g: int
    seed: int
    acceptance_rate: float


def _chunk_g1(rng, n, a, eps, cands):
    x = rng.uniform(-0.5, 0.5, size=n)
    y = a / (1.0 - rng.random(n))
    w = np.zeros(n)
    n_acc = 0
    for start in range(0, n, ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        ok = membership_mask_points(x[block, None, None], y[block, None, None], cands, eps)
        w[block][ok] = 1.0 / a
        n_acc += np.count_nonzero(ok)
    return w.sum(), (w * w).sum(), n_acc


def _chunk_g2(rng, n, a, eps, cands):
    t1 = a * (1.0 - rng.random(n)) ** (-1.0 / 3.0)
    t2 = t1 * (1.0 - rng.random(n)) ** (-1.0 / 2.0)
    s = rng.random(n)
    xd = rng.uniform(-0.5, 0.5, size=(n, 3))
    w = np.zeros(n)
    n_acc = 0
    for start in range(0, n, ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        b1, b2 = t1[block], t2[block]
        y12 = 0.5 * s[block] * b1
        xs, ys = np.empty((2, len(b1), 2, 2))
        ys[:, 0, 0] = b1
        ys[:, 1, 1] = b2
        ys[:, 0, 1] = ys[:, 1, 0] = y12
        xb = xd[block]
        xs[:, 0, 0] = xb[:, 0]
        xs[:, 1, 1] = xb[:, 1]
        xs[:, 0, 1] = xs[:, 1, 0] = xb[:, 2]
        acc = np.flatnonzero(membership_mask_points(xs, ys, cands, eps))
        b1, b2, y12 = b1[acc], b2[acc], y12[acc]
        det_y = b1 * b2 - y12 * y12
        q1 = 3.0 * a ** 3 * b1 ** -4
        q2 = 2.0 * b1 ** 2 * b2 ** -3
        w[block][acc] = det_y ** -3 * (0.5 * b1) / (q1 * q2)
        n_acc += acc.size
    return w.sum(), (w * w).sum(), n_acc


def volume_fg_mc(g: int, n_samples: int, seed: int, threads: int = 1,
                 eps: float = DEFAULT_EPS, cands: CandidateSet = None) -> VolumeEstimate:
    """Importance-sampled Monte Carlo volume of the g = 1 or 2 domain.

    X is uniform over the unit box; Y uses a Pareto-tail proposal matched to
    the invariant density (no truncation, so no tail bias): for g = 1 the
    density a/y^2 on [a, inf) with a = 0.8, for g = 2 the diagonal gets
    Pareto tails with exponents (3, 2) and the off-diagonal entry is uniform
    over the reduced wedge [0, y11/2].  Samples split into chunks of
    MC_CHUNK seeded by (seed, chunk_index), so results are reproducible and
    independent of ``threads``; chunk sums merge in index order.  A chunk
    draws all its samples at once, then builds (X, Y), runs the membership
    mask and weighs the members ROW_BLOCK samples at a time, while they are
    in cache.  It is the only code that blocks: the mask kernels take each
    block whole.  Its sums are taken over the whole chunk, and a mask gives
    a point the same bit in any batch, so the block size changes no bit.
    """
    if g not in (1, 2):
        raise ValueError("Monte Carlo volume supports g in {1, 2}")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2 for a standard error")
    cands = builtin_candidates(g) if cands is None else cands
    a = 0.8
    worker = _chunk_g1 if g == 1 else _chunk_g2

    sizes = []
    rest = n_samples
    while rest > 0:
        sizes.append(min(MC_CHUNK, rest))
        rest -= sizes[-1]

    def run(idx_size):
        idx, size = idx_size
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), idx]))
        return worker(rng, size, a, eps, cands)

    jobs = list(enumerate(sizes))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]

    sum_w = sum(r[0] for r in results)
    sum_w2 = sum(r[1] for r in results)
    n_acc = sum(r[2] for r in results)
    est = sum_w / n_samples
    var = max(sum_w2 / n_samples - est * est, 0.0)
    stderr = float(np.sqrt(var / n_samples))
    return VolumeEstimate(float(est), stderr, n_samples, g, seed, n_acc / n_samples)
