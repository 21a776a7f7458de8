import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from math import pi

from siegeljacobi.geometry import (DEFAULT_FD_STEP, MC_CHUNK, VOLUME_TARGETS,
                                   laplacian_apply, metric_fiber, metric_jacobi,
                                   metric_p, metric_siegel, push_tangent_jacobi,
                                   push_tangent_p, push_tangent_siegel,
                                   volume_f1, volume_fg_mc)
from siegeljacobi.geometry import _Chart, _operator_terms
from siegeljacobi.group_core import (JacobiPoint, SiegelPoint, act_jacobi,
                                     act_siegel)
from siegeljacobi.siegel import builtin_candidates
from conftest import (fd_push_jacobi, fd_push_siegel, jacobi_density,
                      rand_jacobi_element, rand_jacobi_point, rand_pd,
                      rand_siegel_point, rand_sym_complex, rand_symplectic,
                      siegel_density)


# ---------------------------------------------------------------------------
# printed operators: hand-expanded {(i <= j): coeff} tables of the complex
# coordinate forms, the oracle for the library's S = scale x inv(G)
# ---------------------------------------------------------------------------

def _new_table():
    second = {}

    def add2(i, j, c):
        key = (i, j) if i <= j else (j, i)
        second[key] = second.get(key, 0.0) + c

    return second, add2


def _table_matrix(second, d):
    """Real symmetric S with sum_(i<=j) c_ij d_i d_j = sum_(i,j) S_ij d_i d_j;
    the +-i terms of a printed table must cancel."""
    c = np.array(list(second.values()), dtype=complex)
    assert np.max(np.abs(c.imag)) <= 1e-12 * np.max(np.abs(c))
    i, j = np.array(list(second), dtype=np.intp).T
    s = np.zeros((d, d))
    s[i, j] = 0.5 * c.real
    return s + s.T


def _add_siegel_terms(chart, add2, y):
    """4 tr(Y t(Y dOmegabar) dOmega) over the real (x, y) chart."""
    g = y.shape[0]
    w = lambda a, b: 0.5 * (1.0 + (a == b))
    for a in range(g):
        for b in range(g):
            for c in range(g):
                for d in range(g):
                    coeff = y[a, b] * y[c, d] * w(d, b) * w(c, a)
                    ix_db, iy_db = chart.cid("X", d, b), chart.cid("Y", d, b)
                    ix_ca, iy_ca = chart.cid("X", c, a), chart.cid("Y", c, a)
                    add2(ix_db, ix_ca, coeff)
                    add2(iy_db, iy_ca, coeff)
                    add2(iy_db, ix_ca, 1j * coeff)
                    add2(ix_db, iy_ca, -1j * coeff)


def _add_cone_terms(chart, add2, y):
    """Second-order part of the cone operator tr((Y d/dY)^2) over the real y
    chart; d/dY halves each off-diagonal coordinate derivative."""
    g = y.shape[0]
    w = lambda a, b: 0.5 * (1.0 + (a == b))
    for i in range(g):
        for j in range(g):
            for k in range(g):
                for m in range(g):
                    add2(chart.cid("Y", j, k), chart.cid("Y", m, i),
                         y[i, j] * y[k, m] * w(j, k) * w(m, i))


def _add_fiber_terms(chart, add2, y, scale):
    """4s tr(Y dZ t(dZbar)), the flat fiber term; scale 1/4 gives the torus form."""
    g = y.shape[0]
    h = chart.u.shape[0]
    for a in range(g):
        for b in range(g):
            for k in range(h):
                coeff = scale * y[a, b]
                iu_kb, iv_kb = chart.cid("U", k, b), chart.cid("V", k, b)
                iu_ka, iv_ka = chart.cid("U", k, a), chart.cid("V", k, a)
                add2(iu_kb, iu_ka, coeff)
                add2(iv_kb, iv_ka, coeff)
                add2(iu_kb, iv_ka, 1j * coeff)
                add2(iv_kb, iu_ka, -1j * coeff)


def _jacobi_trace_form_terms(chart):
    """Second-order table of the five-trace-term closed form.

    A test oracle: it agrees with the library's inverse-metric assembly when
    g = 1 and differs in the fiber block for g >= 2 (its fiber coefficient
    (I + V Y^{-1} tV) x Y is not the Schur complement of the metric there);
    the tests pin down both facts.
    """
    second, add2 = _new_table()
    y, v = chart.y, chart.v
    g = y.shape[0]
    h = v.shape[0]
    _add_siegel_terms(chart, add2, y)
    _add_fiber_terms(chart, add2, y, scale=1.0)
    yi = np.linalg.inv(y)
    wmat = v @ yi @ v.T
    for k in range(h):
        for l in range(h):
            for a in range(g):
                for c in range(g):
                    coeff = wmat[k, l] * y[a, c]
                    iu_lc, iv_lc = chart.cid("U", l, c), chart.cid("V", l, c)
                    iu_ka, iv_ka = chart.cid("U", k, a), chart.cid("V", k, a)
                    add2(iu_lc, iu_ka, coeff)
                    add2(iv_lc, iv_ka, coeff)
                    add2(iv_lc, iu_ka, 1j * coeff)
                    add2(iu_lc, iv_ka, -1j * coeff)
    wgt = lambda a, b: 0.5 * (1.0 + (a == b))
    for k in range(h):
        for a in range(g):
            for b in range(g):
                for c in range(g):
                    coeff = v[k, a] * y[b, c] * wgt(c, a)
                    ix, iy = chart.cid("X", c, a), chart.cid("Y", c, a)
                    iu, iv_ = chart.cid("U", k, b), chart.cid("V", k, b)
                    add2(ix, iu, coeff)
                    add2(iy, iv_, coeff)
                    add2(iy, iu, 1j * coeff)
                    add2(ix, iv_, -1j * coeff)
    for k in range(h):
        for a in range(g):
            for b in range(g):
                for c in range(g):
                    coeff = v[k, a] * y[b, c] * wgt(b, a)
                    iu, iv_ = chart.cid("U", k, c), chart.cid("V", k, c)
                    ix, iy = chart.cid("X", b, a), chart.cid("Y", b, a)
                    add2(iu, ix, coeff)
                    add2(iv_, iy, coeff)
                    add2(iv_, ix, 1j * coeff)
                    add2(iu, iy, -1j * coeff)
    return second


def _pairwise_laplacian(kind, f, point, step=DEFAULT_FD_STEP):
    """The pairwise stencil the principal-direction one replaced, as an oracle.

    One central difference per first-order term, one 3-point second
    difference per diagonal and one 4-point mixed difference per off-diagonal
    pair (i < j) of S, Richardson-extrapolated over step and step/2.
    """
    chart = _Chart(kind, point)
    s, first = _operator_terms(kind, chart)
    d = chart.d
    ev = chart.evaluator(f)

    def at(offsets):
        return ev(sum(s * chart.basis[i] for i, s in offsets) if offsets else None)

    def once(step):
        f0 = at(())

        def d1(i):
            return (at(((i, step),)) - at(((i, -step),))) / (2 * step)

        def d2(i, j):
            if i == j:
                return (at(((i, step),)) - 2 * f0 + at(((i, -step),))) / step ** 2
            return (at(((i, step), (j, step))) - at(((i, step), (j, -step)))
                    - at(((i, -step), (j, step))) + at(((i, -step), (j, -step)))
                    ) / (4 * step ** 2)

        total = sum((1 + (i != j)) * s[i, j] * d2(i, j)
                    for i in range(d) for j in range(i, d) if s[i, j] != 0)
        return total + sum(c * d1(i) for i, c in first.items() if c != 0)

    return (4.0 * once(step / 2) - once(step)) / 3.0


def _kind_point(kind, p):
    """The argument ``laplacian_apply`` takes for ``kind`` at the Jacobi point p."""
    return p.omega.Y if kind == "P" else (p.omega if kind == "siegel" else p)


def _chart_blocks(kind, args):
    """Real blocks of the point a test function of ``kind`` is called at."""
    if kind == "P":
        return {"Y": args[0]}
    if kind == "siegel":
        return {"X": args[0].real, "Y": args[0].imag}
    z = args[-1]
    blocks = {"U": z.real, "V": z.imag}
    if kind == "jacobi":
        blocks.update(X=args[0].real, Y=args[0].imag)
    return blocks


def rand_sym_real(g, rng):
    h = rng.normal(size=(g, g))
    return 0.5 * (h + h.T)


class TestMetricP:
    def test_identity_trace(self):
        for g in (1, 2, 3):
            assert abs(metric_p(np.eye(g), np.eye(g), np.eye(g)) - g) < 1e-14

    def test_scalar_case(self):
        assert abs(metric_p([[2.0]], [[0.5]], [[0.5]]) - 0.25 / 4.0) < 1e-15

    def test_bilinear_symmetric(self, rng):
        for _ in range(30):
            g = int(rng.integers(1, 4))
            y = rand_pd(g, rng)
            h1, h2, h3 = (rand_sym_real(g, rng) for _ in range(3))
            a, b = rng.normal(), rng.normal()
            lhs = metric_p(y, a * h1 + b * h2, h3)
            rhs = a * metric_p(y, h1, h3) + b * metric_p(y, h2, h3)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
            assert abs(metric_p(y, h1, h2) - metric_p(y, h2, h1)) < 1e-12

    def test_positive(self, rng):
        for _ in range(50):
            g = int(rng.integers(1, 4))
            y = rand_pd(g, rng)
            h = rand_sym_real(g, rng)
            if np.max(np.abs(h)) < 1e-9:
                continue
            assert metric_p(y, h, h) > 0

    def test_gl_invariance(self, rng):
        for _ in range(100):
            g = int(rng.integers(1, 4))
            y = rand_pd(g, rng)
            h1, h2 = rand_sym_real(g, rng), rand_sym_real(g, rng)
            gm = rng.normal(size=(g, g)) + 0.5 * np.eye(g)
            if abs(np.linalg.det(gm)) < 0.2:
                continue
            v1 = metric_p(y, h1, h2)
            v2 = metric_p(gm @ y @ gm.T, push_tangent_p(gm, h1), push_tangent_p(gm, h2))
            assert abs(v1 - v2) < 1e-10 * max(1.0, abs(v1))


class TestMetricSiegel:
    def test_identity_trace(self):
        for g in (1, 2, 3):
            p = SiegelPoint.from_omega(1j * np.eye(g))
            assert abs(metric_siegel(p, np.eye(g), np.eye(g)) - g) < 1e-14

    def test_hyperbolic_plane(self, rng):
        # ds^2 = (dx^2 + dy^2)/y^2 at g = 1
        for _ in range(20):
            y = np.exp(rng.normal())
            p = SiegelPoint.from_omega([[rng.normal() + 1j * y]])
            dx, dy = rng.normal(), rng.normal()
            t = np.array([[dx + 1j * dy]])
            assert abs(metric_siegel(p, t, t) - (dx * dx + dy * dy) / y ** 2) < 1e-12

    def test_pushforward_matches_fd_oracle(self, rng):
        for _ in range(30):
            g = int(rng.integers(1, 3))
            p = rand_siegel_point(g, rng, floor=0.6)
            m = rand_symplectic(g, rng, word_len=3, span=1)
            t = rand_sym_complex(g, rng)
            push = push_tangent_siegel(m, p, t)
            oracle = fd_push_siegel(m, p, t)
            assert np.max(np.abs(push - oracle)) < 1e-8 * max(1.0, np.max(np.abs(push)))

    def test_invariance(self, rng):
        for _ in range(100):
            g = int(rng.integers(1, 3))
            p = rand_siegel_point(g, rng, floor=0.5)
            m = rand_symplectic(g, rng, word_len=4, span=1)
            t1, t2 = rand_sym_complex(g, rng), rand_sym_complex(g, rng)
            v1 = metric_siegel(p, t1, t2)
            q = act_siegel(m, p)
            v2 = metric_siegel(q, push_tangent_siegel(m, p, t1),
                               push_tangent_siegel(m, p, t2))
            assert abs(v1 - v2) < 1e-9 * max(1.0, abs(v1))


class TestMetricJacobi:
    def test_reduces_to_siegel_when_fiber_silent(self, rng):
        for _ in range(20):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            base = rand_siegel_point(g, rng)
            p = JacobiPoint.from_z(base, rng.normal(size=(h, g)))  # V = 0
            t1 = (rand_sym_complex(g, rng), np.zeros((h, g)))
            t2 = (rand_sym_complex(g, rng), np.zeros((h, g)))
            v1 = metric_jacobi(p, t1, t2)
            v2 = metric_siegel(base, t1[0], t2[0])
            assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v1))

    def test_fiber_unit(self):
        p = JacobiPoint.from_z(SiegelPoint.from_omega(1j * np.eye(2)),
                               np.zeros((1, 2)))
        e11 = np.zeros((1, 2))
        e11[0, 0] = 1.0
        t = (np.zeros((2, 2)), e11)
        assert abs(metric_jacobi(p, t, t) - 1.0) < 1e-14

    def test_positive(self, rng):
        for _ in range(100):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            p = rand_jacobi_point(g, h, rng)
            t = (rand_sym_complex(g, rng),
                 rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g)))
            assert metric_jacobi(p, t, t) > 0

    def test_invariance_with_fd_oracle(self, rng):
        for _ in range(100):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            p = rand_jacobi_point(g, h, rng, floor=0.6)
            x = rand_jacobi_element(g, h, rng, word_len=3, span=1)
            t1 = (rand_sym_complex(g, rng),
                  rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g)))
            t2 = (rand_sym_complex(g, rng),
                  rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g)))
            v1 = metric_jacobi(p, t1, t2)
            q = act_jacobi(x, p)
            p1 = push_tangent_jacobi(x, p, t1)
            p2 = push_tangent_jacobi(x, p, t2)
            v2 = metric_jacobi(q, p1, p2)
            assert abs(v1 - v2) < 1e-8 * max(1.0, abs(v1))
            o1 = fd_push_jacobi(x, p, t1)
            assert np.max(np.abs(o1[0] - p1[0])) < 1e-7 * max(1.0, np.max(np.abs(p1[0])))
            assert np.max(np.abs(o1[1] - p1[1])) < 1e-7 * max(1.0, np.max(np.abs(p1[1])))


class TestStackedMetrics:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(g=st.integers(1, 3), h=st.integers(1, 2), n=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_matches_scalar_calls(self, g, h, n, seed):
        # one stacked call gives the n x n matrix of the scalar calls
        rng = np.random.default_rng(seed)
        p = rand_jacobi_point(g, h, rng)
        cone = np.array([rand_sym_real(g, rng) for _ in range(n)])
        dom = np.array([rand_sym_complex(g, rng) for _ in range(n)])
        dz = rng.normal(size=(n, h, g)) + 1j * rng.normal(size=(n, h, g))
        # each case: the metric and the tangent (or stack) at an index
        cases = [(lambda a, b: metric_p(p.omega.Y, a, b), lambda ix: cone[ix]),
                 (lambda a, b: metric_siegel(p.omega, a, b), lambda ix: dom[ix]),
                 (lambda a, b: metric_fiber(p.omega, a, b), lambda ix: dz[ix]),
                 (lambda a, b: metric_jacobi(p, a, b), lambda ix: (dom[ix], dz[ix]))]
        for metric, at in cases:
            stacked = metric(at(np.s_[:, None]), at(np.s_[None]))
            assert stacked.shape == (n, n)
            for i in range(n):
                for j in range(n):
                    one = metric(at(i), at(j))
                    assert type(one) is float
                    assert abs(stacked[i, j] - one) <= 1e-12 * max(1.0, abs(one))


class TestLaplacians:
    def test_constants_vanish(self, rng):
        p = rand_jacobi_point(2, 1, rng)
        for kind, fun in (("P", lambda y: 4.2),
                          ("siegel", lambda om: 4.2),
                          ("omega", lambda z: 4.2),
                          ("jacobi", lambda om, z: 4.2)):
            point = p.omega.Y if kind == "P" else (p.omega if kind == "siegel" else p)
            assert abs(laplacian_apply(kind, fun, point)) < 1e-9

    def test_hyperbolic_eigenfunction(self, rng):
        # g = 1: the invariant operator sends y^s to s(s-1) y^s
        for s in (2.0, 3.0, 0.5):
            for _ in range(3):
                p = SiegelPoint.from_omega([[rng.normal() + 1j * np.exp(rng.normal(0, 0.5))]])
                y = p.Y[0, 0]
                val = laplacian_apply("siegel", lambda om: om.imag[0, 0] ** s, p)
                want = s * (s - 1) * y ** s
                assert abs(val - want) / y ** s < 1e-5

    def test_cone_operator_scalar(self, rng):
        # g = 1 cone operator is y^2 d^2/dy^2 + y d/dy: y^s -> s^2 y^s
        for s in (2.0, 0.7):
            y0 = np.exp(rng.normal())
            val = laplacian_apply("P", lambda y: y[0, 0] ** s, np.array([[y0]]))
            assert abs(val - s * s * y0 ** s) / y0 ** s < 1e-6

    def test_omega_kind_eigenfunction(self, rng):
        from siegeljacobi.torus_spectral import (FourierIndex, eigenvalue_E,
                                                 eval_E_omega)
        for _ in range(5):
            g = int(rng.integers(1, 3))
            om = rand_siegel_point(g, rng, floor=0.6)
            idx = FourierIndex(rng.integers(-2, 3, (1, g)), rng.integers(-2, 3, (1, g)))
            z0 = rng.normal(size=(1, g)) + 1j * rng.normal(size=(1, g))
            pt = JacobiPoint.from_z(om, z0)
            val = laplacian_apply("omega", lambda z: eval_E_omega(idx, z, om), pt)
            lam = eigenvalue_E(idx, om)
            base = eval_E_omega(idx, z0, om)
            if abs(lam) > 1e-10:
                assert abs(val / base - lam) / abs(lam) < 1e-5

    @pytest.mark.parametrize("y, msg", [([[1.0, 0.3], [0.1, 1.0]], "not symmetric"),
                                        ([[1.0, 0.0], [0.0, -1.0]],
                                         "is not positive definite")])
    def test_cone_point_checked(self, y, msg):
        # a non-symmetric Y used to give a value (-0.031 for log det here,
        # where a symmetric Y gives 0), an indefinite one a stencil error
        with pytest.raises(ValueError, match="^PosDefMatrix " + msg):
            laplacian_apply("P", lambda m: np.log(np.linalg.det(m)), np.array(y))

    def test_stencil_domain_guard(self):
        y = np.array([[1e-9]])
        with pytest.raises(ValueError, match="leaves the domain"):
            laplacian_apply("P", lambda m: float(m[0, 0]), y, fd_step=1.0)

    def test_siegel_operator_invariance(self, rng):
        for _ in range(10):
            g = int(rng.integers(1, 3))
            p = rand_siegel_point(g, rng, x_scale=0.5, floor=0.8)
            m = rand_symplectic(g, rng, word_len=2, span=1)
            q = act_siegel(m, p)
            r = rng.normal(size=(g, g))
            f = lambda om: np.sin(np.real(np.trace(r @ om))) + np.log(np.linalg.det(om.imag))
            lhs = laplacian_apply(
                "siegel", lambda om: f(act_siegel(m, SiegelPoint.from_omega(om)).omega), p)
            rhs = laplacian_apply("siegel", f, q)
            assert abs(lhs - rhs) < 1e-5 * max(1.0, abs(rhs))

    def test_trace_form_matches_inverse_metric_at_g1(self, rng):
        # the printed five-term closed form is the metric Laplacian for g = 1
        for h in (1, 2):
            p = rand_jacobi_point(1, h, rng, floor=0.7)
            chart = _Chart("jacobi", p)
            s, first = _operator_terms("jacobi", chart)
            printed = _table_matrix(_jacobi_trace_form_terms(chart), chart.d)
            assert np.max(np.abs(s - printed)) < 1e-10
            assert not first

    def test_trace_form_deviates_for_g2(self, rng):
        # for g >= 2 the printed fiber block is not the metric inverse; the
        # implementation follows the invariant operator (see decisions log)
        p = rand_jacobi_point(2, 1, rng, floor=0.7)
        chart = _Chart("jacobi", p)
        s, _ = _operator_terms("jacobi", chart)
        printed = _table_matrix(_jacobi_trace_form_terms(chart), chart.d)
        assert np.max(np.abs(s - printed)) > 1e-3


class TestPrincipalStencil:
    KINDS = ("P", "siegel", "jacobi", "omega")

    def test_tables_are_real(self, rng):
        for kind in self.KINDS:
            for g in (1, 2, 3):
                for h in (1, 2):
                    chart = _Chart(kind, _kind_point(kind, rand_jacobi_point(g, h, rng)))
                    s, _ = _operator_terms(kind, chart)
                    assert s.dtype == float and np.array_equal(s, s.T)

    def test_chart_layout_is_shared_and_read_only(self, rng):
        # one layout per (kind, g, h); row i of the basis moves exactly the
        # entries of base that coordinate i names
        for kind in self.KINDS:
            for g in (1, 2, 3):
                for h in (1, 2):
                    a, b = (_Chart(kind, _kind_point(kind, rand_jacobi_point(g, h, rng)))
                            for _ in range(2))
                    assert a.basis is b.basis and not a.basis.flags.writeable
                    with pytest.raises(TypeError):
                        a.coord_id[("X", 0, 0)] = 0
                    want = np.zeros((a.d, a.base.size))
                    for (block, i, j), c in a.coord_id.items():
                        start = a.slices[block].start
                        want[c, start + i * g + j] = 1.0
                        if block in "XY":
                            want[c, start + j * g + i] = 1.0
                    assert sorted(a.coord_id.values()) == list(range(a.d))
                    assert np.array_equal(a.basis, want)

    def test_matches_printed_tables(self, rng):
        # S = scale x inv(G) reproduces the hand-expanded printed operators
        cases = [("siegel", g, 1) for g in (1, 2, 3)]
        cases += [("omega", g, h) for g in (1, 2, 3) for h in (1, 2)]
        cases += [("P", g, 1) for g in (1, 2, 3)]
        for kind, g, h in cases:
            for _ in range(3):
                chart = _Chart(kind, _kind_point(kind, rand_jacobi_point(g, h, rng)))
                second, add2 = _new_table()
                if kind == "P":
                    _add_cone_terms(chart, add2, chart.y)
                elif kind == "siegel":
                    _add_siegel_terms(chart, add2, chart.y)
                else:
                    _add_fiber_terms(chart, add2, chart.y, scale=0.25)
                printed = _table_matrix(second, chart.d)
                s, first = _operator_terms(kind, chart)
                assert np.max(np.abs(s - printed)) <= 1e-12 * np.max(np.abs(printed))
                assert bool(first) == (kind == "P")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(KINDS), g=st.integers(1, 2), h=st.integers(1, 2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_exact_on_quadratics(self, kind, g, h, seed):
        # central differences are exact on a quadratic in the chart coordinates
        rng = np.random.default_rng(seed)
        point = _kind_point(kind, rand_jacobi_point(g, h, rng, floor=0.5))
        chart = _Chart(kind, point)
        d = chart.d
        a = rng.uniform(-1.0, 1.0, (d, d))
        a = a + a.T
        b = rng.uniform(-1.0, 1.0, d)

        def coords(blocks):
            t = np.zeros(d)
            for (block, i, j), k in chart.coord_id.items():
                t[k] = blocks[block][i, j]
            return t

        ev = chart.evaluator(lambda *args: _chart_blocks(kind, args))
        t0 = coords(ev(None))

        def f(*args):
            t = coords(_chart_blocks(kind, args)) - t0
            return 0.5 * t @ a @ t + b @ t

        s, first = _operator_terms(kind, chart)
        want = np.sum(s * a) + sum(c * b[i] for i, c in first.items())
        got = laplacian_apply(kind, f, point)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_jacobi_evaluation_count(self, rng):
        # d = 10 chart coordinates at (g, h) = (2, 1): 2d + 1 calls per step
        p = rand_jacobi_point(2, 1, rng, floor=0.7)
        calls = []

        def f(om, z):
            calls.append(1)
            return np.sin(om[0, 1].real) + np.log(np.linalg.det(om.imag)) + z[0, 0].imag ** 3

        laplacian_apply("jacobi", f, p)
        assert len(calls) == 42

    def test_matches_pairwise_stencil(self, rng):
        funcs = {
            "P": lambda y: np.linalg.det(y) ** 0.7 + np.sin(y[0, -1]),
            "siegel": lambda om: (np.sin(np.real(np.trace(om @ om)))
                                  + np.log(np.linalg.det(om.imag))),
            "omega": lambda z: np.exp(1j * z[0, 0]) * np.cos(np.sum(z.imag)),
            "jacobi": lambda om, z: (np.sin(np.real(np.sum(z)) + np.real(np.trace(om)))
                                     + np.cos(np.imag(np.sum(z)))
                                     + np.log(np.linalg.det(om.imag))),
        }
        for kind, f in funcs.items():
            for _ in range(5):
                g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
                point = _kind_point(kind, rand_jacobi_point(g, h, rng, floor=0.6))
                new = laplacian_apply(kind, f, point)
                old = _pairwise_laplacian(kind, f, point)
                assert abs(new - old) < 1e-5 * max(1.0, abs(old))


class TestVolumeElements:
    def _num_jacobian_siegel(self, m, p, step=1e-5):
        g = p.g
        pairs = [(a, b) for a in range(g) for b in range(a, g)]
        dim = 2 * len(pairs)

        def coords(q):
            return np.concatenate([[q.X[a, b] for a, b in pairs],
                                   [q.Y[a, b] for a, b in pairs]])

        def moved(i, s):
            x, y = p.X.copy(), p.Y.copy()
            a, b = pairs[i % len(pairs)]
            d = np.zeros((g, g))
            d[a, b] = d[b, a] = s
            if i < len(pairs):
                x = x + d
            else:
                y = y + d
            return act_siegel(m, SiegelPoint(x, y))

        jac = np.zeros((dim, dim))
        for i in range(dim):
            plus, minus = moved(i, step), moved(i, -step)
            jac[:, i] = (coords(plus) - coords(minus)) / (2 * step)
        return jac

    def test_siegel_volume_element_conserved(self, rng):
        for _ in range(10):
            g = int(rng.integers(1, 3))
            p = rand_siegel_point(g, rng, x_scale=0.5, floor=0.8)
            m = rand_symplectic(g, rng, word_len=2, span=1)
            q = act_siegel(m, p)
            jac = self._num_jacobian_siegel(m, p)
            lhs = siegel_density(q) * abs(np.linalg.det(jac))
            rhs = siegel_density(p)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, rhs)

    def test_jacobi_volume_element_conserved(self, rng):
        for _ in range(5):
            g, h = 1, int(rng.integers(1, 3))
            p = rand_jacobi_point(g, h, rng, floor=0.8)
            x = rand_jacobi_element(g, h, rng, word_len=2, span=1)
            q = act_jacobi(x, p)
            step = 1e-5
            gdim = g * (g + 1) // 2

            def coords(pt):
                pairs = [(a, b) for a in range(g) for b in range(a, g)]
                return np.concatenate([[pt.omega.X[a, b] for a, b in pairs],
                                       [pt.omega.Y[a, b] for a, b in pairs],
                                       pt.U.ravel(), pt.V.ravel()])

            def moved(i, s):
                xm, ym = p.omega.X.copy(), p.omega.Y.copy()
                um, vm = p.U.copy(), p.V.copy()
                if i < gdim:
                    xm[0, 0] += s
                elif i < 2 * gdim:
                    ym[0, 0] += s
                else:
                    j = i - 2 * gdim
                    if j < h * g:
                        um.ravel()[j] += s
                    else:
                        vm.ravel()[j - h * g] += s
                return act_jacobi(x, JacobiPoint(SiegelPoint(xm, ym), um, vm))

            dim = 2 * gdim + 2 * h * g
            jac = np.zeros((dim, dim))
            for i in range(dim):
                jac[:, i] = (coords(moved(i, step)) - coords(moved(i, -step))) / (2 * step)
            lhs = jacobi_density(q) * abs(np.linalg.det(jac))
            rhs = jacobi_density(p)
            assert abs(lhs - rhs) < 1e-7 * max(1.0, rhs)


class TestVolumes:
    def test_f1_quadrature(self):
        assert abs(volume_f1() - pi / 3.0) < 1e-8

    def test_f1_integrand_midpoint(self):
        # inner y-integral at x = 0 evaluates to 1
        assert abs(1.0 / np.sqrt(1.0 - 0.0 ** 2) - 1.0) < 1e-15

    def test_node_doubling_agreement(self):
        assert abs(volume_f1(64) - volume_f1(128)) < 1e-10

    def test_mc_g1_small(self):
        res = volume_fg_mc(1, 200_000, seed=123)
        assert abs(res.estimate - pi / 3.0) < 4 * res.stderr
        assert res.stderr < 0.01 * (pi / 3.0)

    def test_mc_g2_small(self):
        res = volume_fg_mc(2, 200_000, seed=123)
        assert abs(res.estimate - VOLUME_TARGETS[2]) < 4 * res.stderr

    def test_mc_deterministic_across_threads(self):
        # three chunks, the last one short: two threads run two chunks at
        # once, and the sums must still merge in chunk order
        n = 5 * MC_CHUNK // 2
        a = volume_fg_mc(2, n, seed=9, threads=1)
        b = volume_fg_mc(2, n, seed=9, threads=2)
        assert a.estimate == b.estimate and a.stderr == b.stderr

    def test_mc_g2_chunk_peak_memory(self):
        # a chunk builds, masks and weighs its samples ROW_BLOCK at a time:
        # one chunk peaks at about 31 MiB, and at 117 MiB in one batch
        builtin_candidates(2).certifying._unit_entries  # load outside the count
        tracemalloc.start()
        try:
            volume_fg_mc(2, MC_CHUNK, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2 ** 20

    def test_mc_rejects_bad_g(self):
        with pytest.raises(ValueError):
            volume_fg_mc(3, 100, seed=0)

    def test_mc_refuses_one_sample(self):
        # one sample used to report "stderr": 0.0, an estimate claiming no error
        with pytest.raises(ValueError, match="at least 2"):
            volume_fg_mc(2, 1, seed=0)
