"""Invariant metrics, Laplacians and volume computations.

Metrics are evaluated from their polarized closed forms, for one pair of
tangents or for stacks of them.  Tangents are plain arrays: a real symmetric
H on the cone, a complex symmetric dOmega on the Siegel space and a pair
(dOmega, dZ) on the Siegel-Jacobi space; symmetry is the caller's to
ensure.  README "Invariant metrics and Laplacians" and "Volumes" describe
the Laplacian stencil and the volume methods.
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
                         _blocks_float, _check_posdef, _lapack, as_pd_array)
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

#: samples a chunk writes into entry planes, masks and weighs at a time:
#: cache sized, measured.  On a 2 MiB-L2-per-core Xeon a g = 2 chunk ran
#: within 2 % of 8,192 at 6,144 to 16,384, 5 % slower at 4,096 and 7-11 %
#: slower at 24,576 to 32,768.  No answer depends on it.
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
    yi = _lapack(np.linalg.inv, "Y", y)
    return _real(_tr_prod(yi @ h1 @ yi, h2))


def metric_siegel(p: SiegelPoint, t1, t2):
    """Polarization of ds^2 = tr(Y^{-1} dOmega Y^{-1} conj(dOmega)).

    Accepts stacks of tangents, whose leading axes broadcast; one pair of
    tangents gives a float.
    """
    d1, d2 = np.asarray(t1, dtype=complex), np.asarray(t2, dtype=complex)
    yi = _lapack(np.linalg.inv, "Im(Omega)", p.Y)
    return _real(_tr_prod(yi @ d1 @ yi, d2.conj()))


def metric_jacobi(p: JacobiPoint, t1, t2):
    """Polarized Kaehler metric on the Siegel-Jacobi space (four trace terms).

    Accepts stacks of tangents, whose leading axes broadcast; one pair of
    tangents gives a float.
    """
    do1, dz1, do2, dz2 = (np.asarray(t, dtype=complex) for t in (*t1, *t2))
    y, v = p.omega.Y, p.V
    yi = _lapack(np.linalg.inv, "Im(Omega)", y)
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
    yi = _lapack(np.linalg.inv, "Im(Omega)", omega.Y)
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
    _, _, c, d = x.m.float_blocks
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

    def evaluator(self, f, disps):
        """The list of ``f`` at the point moved by each row of ``disps``, a
        stack of flat displacements of ``base``.  Every displaced Y is checked
        positive definite, by one stacked Cholesky, before ``f`` is called."""
        s = self.base + disps
        blk = {b: s[:, sl].reshape(len(s), -1, self.y.shape[0])
               for b, sl in self.slices.items()}
        if "Y" in blk:
            _check_posdef(blk["Y"], "finite-difference stencil leaves the domain: Im part")
        if self.kind == "P":
            return [f(y) for y in blk["Y"]]
        if self.kind == "siegel":
            return [f(om) for om in blk["X"] + 1j * blk["Y"]]
        z = blk["U"] + 1j * blk["V"]
        if self.kind == "omega":
            return [f(zz) for zz in z]
        return [f(om, zz) for om, zz in zip(blk["X"] + 1j * blk["Y"], z)]


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
    s = scale * _lapack(np.linalg.inv, "the metric in the chart", gm)
    first = _cone_first_order(chart) if kind == "P" else {}
    return 0.5 * (s + s.T), first   # inv(G) is symmetric only up to rounding


def _cone_first_order(chart):
    """First-order part (g+1)/2 tr(Y d/dY) of the cone operator, the one kind
    that has one: d/dY halves the off-diagonal derivatives, and y_ab and y_ba
    both move coordinate y_ab, a <= b, whose coefficient is (g+1)/2 y_ab."""
    y = chart.y
    g = y.shape[0]
    return {chart.cid("Y", a, b): 0.5 * (g + 1) * y[a, b] for a, b in _sym_pairs(g)}


def _apply_once(f0, plus, minus, signs, first, step):
    """One stencil application at one step from f0 = f(p) and the values at
    p +- step w along each direction w: first the second-order ones, with
    their signs sign lambda_k, then the first-order ones, with their b_i."""
    total = 0j
    for sign, fp, fm in zip(signs, plus, minus):
        total += sign * (fp - 2 * f0 + fm) / step ** 2
    for b, fp, fm in zip(first, plus[len(signs):], minus[len(signs):]):
        total += b * (fp - fm) / (2 * step)
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

    Central second differences along the eigenvectors w_k = sqrt|lambda_k| q_k
    of the coefficients S = Q Lambda tQ, so ``fd_step`` is a length in the
    invariant metric, Richardson-extrapolated (README "Invariant metrics
    and Laplacians").
    """
    chart = _Chart(kind, point)
    s, first = _operator_terms(kind, chart)
    lam, q = _lapack(np.linalg.eigh, "the operator's coefficients", s)
    first = {i: b for i, b in first.items() if b != 0}
    # one step length along every q_k leaves a rounding error that grows with
    # trace(S); scaling q_k by sqrt|lambda_k| makes it grow with d instead
    dirs = np.concatenate([(np.sqrt(np.abs(lam)) * q).T @ chart.basis,
                           chart.basis[list(first)]])
    n, signs, b = len(dirs), np.sign(lam), list(first.values())
    # one stack: p (adding -0.0 keeps every bit), then p +- h w, p +- h/2 w
    steps = (fd_step, -fd_step, fd_step / 2, -fd_step / 2)
    v = chart.evaluator(f, np.concatenate([np.full((1, dirs.shape[1]), -0.0)]
                                          + [t * dirs for t in steps]))
    coarse = _apply_once(v[0], v[1:n + 1], v[n + 1:2 * n + 1], signs, b, fd_step)
    fine = _apply_once(v[0], v[2 * n + 1:3 * n + 1], v[3 * n + 1:], signs, b, fd_step / 2)
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


class ZeroVarianceError(ValueError):
    """A Monte Carlo run whose weights are all equal, so it has no error bar."""


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
        b1 = t1[block]
        # entry planes, xs[i, j] the x_ij of the block: symmetric, so xs.T
        # is the block's (m, 2, 2) stack, as a view
        xs, ys = np.empty((2, 2, 2, b1.size))
        ys[0, 0], ys[1, 1] = b1, t2[block]
        np.multiply(0.5 * s[block], b1, out=ys[0, 1])
        xs[0, 0], xs[1, 1], xs[0, 1] = xd[block].T
        xs[1, 0], ys[1, 0] = xs[0, 1], ys[0, 1]
        acc = membership_mask_points(xs.T, ys.T, cands, eps).nonzero()[0]
        b1, b2, y12 = ys[0, 0][acc], ys[1, 1][acc], ys[0, 1][acc]
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
    the invariant density: for g = 1 the density a/y^2 on [a, inf) with
    a = 0.8, for g = 2 Pareto tails with exponents (3, 2) on the diagonal and
    the off-diagonal entry uniform over [0, y11/2].  Chunks of MC_CHUNK are
    seeded by (seed, chunk_index) (README "Volumes"); a chunk runs the mask
    ROW_BLOCK samples at a time, which changes no bit.
    """
    if g not in (1, 2):
        raise ValueError("Monte Carlo volume supports g in {1, 2}")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2 for a standard error")
    cands = builtin_candidates(g) if cands is None else cands
    a = 0.8
    worker = _chunk_g1 if g == 1 else _chunk_g2

    def run(idx_size):
        idx, size = idx_size
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), idx]))
        return worker(rng, size, a, eps, cands)

    jobs = list(enumerate(min(MC_CHUNK, n_samples - start)
                          for start in range(0, n_samples, MC_CHUNK)))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]

    sum_w, sum_w2, n_acc = (sum(column) for column in zip(*results))
    est = sum_w / n_samples
    var = max(sum_w2 / n_samples - est * est, 0.0)
    if var == 0.0:
        # every weight equal (all rejected, or at g = 1 all accepted): no error bar
        raise ZeroVarianceError(
            "n_samples=%d: the %d weights (%d accepted) have zero sample variance, "
            "so there is no standard error; take more samples" % (n_samples, n_samples, n_acc))
    stderr = float(np.sqrt(var / n_samples))
    return VolumeEstimate(float(est), stderr, n_samples, g, seed, n_acc / n_samples)
