"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (bypassing capture so the lines are
visible in plain ``pytest -v`` runs) and asserts the criterion.
"""

import time
from math import pi

import numpy as np

from siegeljacobi.geometry import (VOLUME_TARGETS, laplacian_apply,
                                   metric_fiber, metric_jacobi, metric_p,
                                   metric_siegel, push_tangent_jacobi,
                                   push_tangent_p, push_tangent_siegel,
                                   volume_f1, volume_fg_mc)
from siegeljacobi.group_core import (JacobiPoint, SiegelPoint, act_jacobi,
                                     act_siegel, jacobi_mul)
from siegeljacobi.intmat import to_float
from siegeljacobi.jacobi_domain import jacobi_reduce
from siegeljacobi.minkowski import is_minkowski_reduced, minkowski_reduce
from siegeljacobi.siegel import siegel_reduce
from siegeljacobi.torus_spectral import (FourierIndex, character_table,
                                         eigenvalue_E, eval_E_omega,
                                         frequency_indices, torus_grid)
from conftest import (boundary_equivalent, rand_interior_jacobi,
                      rand_jacobi_element, rand_jacobi_point, rand_pd,
                      rand_siegel_point, rand_sym_complex, rand_symplectic,
                      sl2z_reduce_oracle)


def _report(num, name, ok, detail):
    line = "ACCEPTANCE %02d %-28s %s  (%s)" % (num, name, "PASS" if ok else "FAIL", detail)
    print(line, flush=True)
    import conftest
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_01_volume_f1_quadrature():
    t0 = time.perf_counter()
    val = volume_f1()
    dt = time.perf_counter() - t0
    err = abs(val - pi / 3.0)
    ok = err < 1e-8 and dt < 1.0
    _report(1, "vol(F1) quadrature", ok, "err=%.2e time=%.3fs" % (err, dt))


def test_02a_volume_f1_monte_carlo():
    t0 = time.perf_counter()
    res = volume_fg_mc(1, 1_000_000, seed=2024)
    dt = time.perf_counter() - t0
    target = pi / 3.0
    sig = abs(res.estimate - target) / res.stderr
    ok = sig <= 3.0 and res.stderr < 0.01 * target and dt < 30.0
    _report(2, "vol(F1) Monte Carlo", ok,
            "est=%.6f sigmas=%.2f rel.stderr=%.2e time=%.1fs"
            % (res.estimate, sig, res.stderr / target, dt))


def test_02b_volume_f2_monte_carlo():
    t0 = time.perf_counter()
    res = volume_fg_mc(2, 10_000_000, seed=2024, threads=2)
    dt = time.perf_counter() - t0
    target = VOLUME_TARGETS[2]
    sig = abs(res.estimate - target) / res.stderr
    ok = sig <= 3.0 and res.stderr < 0.03 * target and dt < 600.0
    _report(2, "vol(F2) Monte Carlo", ok,
            "est=%.6f target=%.6f sigmas=%.2f rel.stderr=%.2e time=%.1fs"
            % (res.estimate, target, sig, res.stderr / target, dt))


def test_03_siegel_oracle_equivalence():
    rng = np.random.default_rng(3)
    bad = 0
    for _ in range(10_000):
        tau = complex(rng.normal(0, 2), np.exp(rng.normal(0, 1.5)))
        got = siegel_reduce(SiegelPoint.from_omega([[tau]])).reduced.omega[0, 0]
        want = sl2z_reduce_oracle(tau)
        if not boundary_equivalent(complex(got), want, tol=1e-10):
            bad += 1
    _report(3, "Siegel g=1 classical oracle", bad == 0,
            "mismatches=%d/10000" % bad)


def test_04_jacobi_round_trip():
    rng = np.random.default_rng(4)
    worst_pt = 0.0
    bad_gamma = 0
    for _ in range(1000):
        g = int(rng.integers(1, 3))
        h = int(rng.integers(1, 3))
        p0 = rand_interior_jacobi(g, h, rng)
        x = rand_jacobi_element(g, h, rng, word_len=5)
        pt = act_jacobi(x, p0)
        cert = jacobi_reduce(pt)
        dev = max(np.max(np.abs(cert.reduced.Z - p0.Z)),
                  np.max(np.abs(cert.reduced.omega.omega - p0.omega.omega)))
        worst_pt = max(worst_pt, dev)
        # recovered element equals x up to +-I and a central kappa
        d = jacobi_mul(x.inverse(), cert.gammaJ)
        if d.m.is_identity():
            if not (np.all(d.heis.lam == 0) and np.all(d.heis.mu == 0)):
                bad_gamma += 1
        elif (-d.m).is_identity():
            if not (np.all(np.isin(d.heis.lam, (-1, 0)))
                    and np.all(np.isin(d.heis.mu, (-1, 0)))):
                bad_gamma += 1
        else:
            bad_gamma += 1
    ok = worst_pt < 1e-8 and bad_gamma == 0
    _report(4, "Jacobi round trip", ok,
            "worst point dev=%.2e bad gammas=%d/1000" % (worst_pt, bad_gamma))


def test_05a_metric_invariance_suite():
    rng = np.random.default_rng(5)
    worst = {"cone": 0.0, "siegel": 0.0, "jacobi": 0.0, "fiber": 0.0}
    for _ in range(100):
        # cone metric under GL(g, R)
        g = int(rng.integers(1, 4))
        y = rand_pd(g, rng)
        h1 = rng.normal(size=(g, g))
        h1 = 0.5 * (h1 + h1.T)
        h2 = rng.normal(size=(g, g))
        h2 = 0.5 * (h2 + h2.T)
        gm = rng.normal(size=(g, g)) + 0.7 * np.eye(g)
        if abs(np.linalg.det(gm)) > 0.2:
            v1 = metric_p(y, h1, h2)
            v2 = metric_p(gm @ y @ gm.T, push_tangent_p(gm, h1), push_tangent_p(gm, h2))
            worst["cone"] = max(worst["cone"], abs(v1 - v2) / max(1.0, abs(v1)))

        # Siegel metric under Sp(g, Z)
        g = int(rng.integers(1, 3))
        p = rand_siegel_point(g, rng, floor=0.5)
        m = rand_symplectic(g, rng, word_len=4, span=1)
        t1, t2 = rand_sym_complex(g, rng), rand_sym_complex(g, rng)
        v1 = metric_siegel(p, t1, t2)
        v2 = metric_siegel(act_siegel(m, p), push_tangent_siegel(m, p, t1),
                           push_tangent_siegel(m, p, t2))
        worst["siegel"] = max(worst["siegel"], abs(v1 - v2) / max(1.0, abs(v1)))

        # full Siegel-Jacobi metric under the Jacobi group
        g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        jp = rand_jacobi_point(g, h, rng, floor=0.5)
        x = rand_jacobi_element(g, h, rng, word_len=4, span=1)
        jt1 = (rand_sym_complex(g, rng),
               rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g)))
        jt2 = (rand_sym_complex(g, rng),
               rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g)))
        v1 = metric_jacobi(jp, jt1, jt2)
        v2 = metric_jacobi(act_jacobi(x, jp), push_tangent_jacobi(x, jp, jt1),
                           push_tangent_jacobi(x, jp, jt2))
        worst["jacobi"] = max(worst["jacobi"], abs(v1 - v2) / max(1.0, abs(v1)))

        # fiber metric at fixed base point
        dz1 = rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g))
        dz2 = rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g))
        k = to_float(x.m.C) @ jp.omega.omega + to_float(x.m.D)
        ki = np.linalg.inv(k)
        v1 = metric_fiber(jp.omega, dz1, dz2)
        v2 = metric_fiber(act_siegel(x.m, jp.omega), dz1 @ ki, dz2 @ ki)
        worst["fiber"] = max(worst["fiber"], abs(v1 - v2) / max(1.0, abs(v1)))
    ok = all(v < 1e-8 for v in worst.values())
    _report(5, "metric invariance (4 metrics)", ok,
            " ".join("%s=%.1e" % kv for kv in worst.items()))


def test_05b_laplacian_operator_invariance():
    rng = np.random.default_rng(55)
    worst_j = worst_o = 0.0
    for _ in range(10):
        g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        base = rand_siegel_point(g, rng, x_scale=0.4, floor=0.9)
        p = JacobiPoint.from_z(base, 0.8 * (rng.normal(size=(h, g))
                                            + 1j * rng.normal(size=(h, g))))
        x = rand_jacobi_element(g, h, rng, word_len=2, span=1)
        q = act_jacobi(x, p)
        pmat = rng.normal(size=(h, g))
        rmat = rng.normal(size=(g, g))

        def f(om, zz):
            return (np.sin(np.real(np.sum(pmat * zz)) + np.real(np.trace(rmat @ om)))
                    + np.cos(np.imag(np.sum(pmat * zz)))
                    + np.log(np.linalg.det(om.imag)))

        def f_pulled(om, zz):
            moved = act_jacobi(x, JacobiPoint.from_z(SiegelPoint.from_omega(om), zz))
            return f(moved.omega.omega, moved.Z)

        lhs = laplacian_apply("jacobi", f_pulled, p)
        rhs = laplacian_apply("jacobi", f, q)
        worst_j = max(worst_j, abs(lhs - rhs) / max(1.0, abs(rhs)))

        # fiber operator at fixed base point
        komega = to_float(x.m.C) @ base.omega + to_float(x.m.D)
        ki = np.linalg.inv(komega)
        lam = to_float(x.heis.lam)
        mu = to_float(x.heis.mu)

        def zmap(zz):
            return (zz + lam @ base.omega + mu) @ ki

        def fz(zz):
            return (np.sin(np.real(np.sum(pmat * zz)))
                    + np.cos(np.imag(np.sum(pmat * zz)) ** 2))

        lhs = laplacian_apply("omega", lambda zz: fz(zmap(zz)), p)
        rhs = laplacian_apply("omega", fz, q)
        worst_o = max(worst_o, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = worst_j < 1e-5 and worst_o < 1e-5
    _report(5, "Laplacian operator invariance", ok,
            "jacobi=%.1e fiber=%.1e" % (worst_j, worst_o))


def test_06_hyperbolic_eigenfunction():
    rng = np.random.default_rng(6)
    worst = 0.0
    for s in (2.0, 3.0, 0.5):
        for _ in range(10):
            y = np.exp(rng.normal(0, 0.5))
            p = SiegelPoint.from_omega([[rng.normal() + 1j * y]])
            val = laplacian_apply("siegel", lambda om: om.imag[0, 0] ** s, p,
                                  fd_step=1e-3)
            resid = abs(val - s * (s - 1) * y ** s) / y ** s
            worst = max(worst, resid)
    _report(6, "hyperbolic eigenfunction", worst <= 1e-5, "worst resid=%.1e" % worst)


def test_07_character_periodicity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        om = rand_siegel_point(g, rng)
        idx = FourierIndex(rng.integers(-2, 3, (h, g)), rng.integers(-2, 3, (h, g)))
        z = rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g))
        lam = rng.integers(-3, 4, (h, g))
        mu = rng.integers(-3, 4, (h, g))
        shift = z + lam @ om.omega + mu
        worst = max(worst, abs(eval_E_omega(idx, shift, om)
                               - eval_E_omega(idx, z, om)))
    _report(7, "character periodicity", worst <= 1e-12, "worst=%.1e" % worst)


def test_08_orthonormality():
    rng = np.random.default_rng(8)
    t0 = time.perf_counter()
    om = rand_siegel_point(1, rng)
    idxs = frequency_indices(1, 1, 1)
    p, q = torus_grid(1, 1, 8)
    table = character_table(idxs, p, q, om)
    gram = table.conj() @ table.T / p.shape[0]
    dev = float(np.max(np.abs(gram - np.eye(len(idxs)))))
    dt = time.perf_counter() - t0
    ok = dev <= 1e-10 and dt < 5.0
    _report(8, "orthonormality", ok, "gram dev=%.1e time=%.2fs" % (dev, dt))


def test_09_eigenvalue_oracle_gate():
    rng = np.random.default_rng(9)
    worst = 0.0
    done = 0
    while done < 20:
        g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        om = rand_siegel_point(g, rng, floor=0.6)
        idx = FourierIndex(rng.integers(-2, 3, (h, g)), rng.integers(-2, 3, (h, g)))
        lam = eigenvalue_E(idx, om)
        if abs(lam) < 1e-10:
            continue
        done += 1
        z0 = rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g))
        pt = JacobiPoint.from_z(om, z0)
        val = laplacian_apply("omega", lambda z: eval_E_omega(idx, z, om), pt)
        base = eval_E_omega(idx, z0, om)
        worst = max(worst, abs(val / base - lam) / abs(lam))
    _report(9, "eigenvalue oracle gate", worst <= 1e-5, "worst rel err=%.1e" % worst)


def test_10_minkowski_property_suite():
    rng = np.random.default_rng(10)
    t0 = time.perf_counter()
    counts = {1: 2000, 2: 4000, 3: 4000}
    worst_r4 = 0.0
    for g, n in counts.items():
        for _ in range(n):
            y = rand_pd(g, rng, floor=0.05)
            cert = minkowski_reduce(y)
            r = cert.reduced
            assert is_minkowski_reduced(r), "membership failed"
            for i in range(g):
                for j in range(i + 1, g):
                    worst_r4 = max(worst_r4, r[i, i] - r[j, j],
                                   abs(r[i, j]) - 0.5 * r[i, i])
            again = minkowski_reduce(r)
            assert again.iterations == 0, "idempotence failed"
            assert np.allclose(again.reduced, r, atol=1e-9)
    dt = time.perf_counter() - t0
    ok = worst_r4 <= 1e-9
    _report(10, "Minkowski property suite", ok,
            "n=10000 worst R4 slack=%.1e time=%.1fs" % (worst_r4, dt))
