import numpy as np
import pytest

from siegeljacobi.group_core import JacobiPoint, SiegelPoint
from siegeljacobi.geometry import laplacian_apply
from siegeljacobi.torus_spectral import (AbelianPoint, FourierIndex,
                                         QuadratureGridError, TorusPoint,
                                         character_table,
                                         eigenvalue_E, eval_E_omega,
                                         eval_E_torus, frequency_indices,
                                         inner_product, phi_omega,
                                         phi_omega_inv, riemann_conditions,
                                         torus_grid, truncated_expansion)
from conftest import rand_siegel_point


@pytest.mark.parametrize("make, names", [
    (lambda u, v: JacobiPoint(SiegelPoint.from_omega(1j * np.eye(2)), u, v), "U and V"),
    (AbelianPoint, "U and V"), (TorusPoint, "P and Q"), (FourierIndex, "A and B")],
    ids=["JacobiPoint", "AbelianPoint", "TorusPoint", "FourierIndex"])
@pytest.mark.parametrize("u, v", [(np.zeros((1, 2)), np.zeros((2, 2))),
                                  (np.zeros(2), np.zeros(2))], ids=["mismatched", "1-d"])
def test_pair_shapes_checked(make, names, u, v):
    with pytest.raises(ValueError, match="^%s must be equal-shape h x g matrices$" % names):
        make(u, v)


def test_fourier_index_refuses_non_integral():
    # integral floats are frequencies; others raise, where a cast would truncate
    for a, b in (([[0.5]], [[1.7]]), ([[1]], [[np.inf]])):
        with pytest.raises(ValueError, match="non-(integer|finite) entry"):
            FourierIndex(a, b)
    idx = FourierIndex([[2.0, -1.0]], [[0, 3]])
    assert idx.A.dtype == idx.B.dtype == int and idx.A.tolist() == [[2, -1]]


class TestRiemannConditions:
    def test_alternating_condition_forced(self, rng):
        for _ in range(20):
            g = int(rng.integers(1, 4))
            r1, _ = riemann_conditions(rand_siegel_point(g, rng))
            assert r1 < 1e-14

    def test_positivity_matrix_is_twice_im(self, rng):
        p = SiegelPoint.from_omega(1j * np.eye(2))
        r1, e2 = riemann_conditions(p)
        assert abs(e2 - 2.0) < 1e-14
        for _ in range(20):
            g = int(rng.integers(1, 4))
            q = rand_siegel_point(g, rng)
            _, eig = riemann_conditions(q)
            want = 2.0 * np.linalg.eigvalsh(q.Y)[0]
            assert abs(eig - want) < 1e-10


class TestPhiOmega:
    def test_q_zero_is_identity_on_p(self, rng):
        om = rand_siegel_point(2, rng)
        t = TorusPoint(rng.random((2, 2)), np.zeros((2, 2)))
        z = phi_omega(t, om)
        assert np.allclose(z.U, t.P) and np.allclose(z.V, 0)

    def test_basis_vector_maps_to_omega_row(self, rng):
        # the lift P = 0, Q = E_kj lands on the lattice vector E_kj Omega
        om = rand_siegel_point(3, rng)
        for (k, j) in ((0, 0), (1, 2)):
            q = np.zeros((2, 3))
            q[k, j] = 1.0
            z = phi_omega((np.zeros((2, 3)), q), om)
            want = q @ om.omega
            assert np.max(np.abs(z.Z - want)) < 1e-14

    def test_round_trip(self, rng):
        for _ in range(100):
            g, h = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            om = rand_siegel_point(g, rng)
            t = TorusPoint(rng.random((h, g)), rng.random((h, g)))
            back = phi_omega_inv(phi_omega(t, om), om)
            assert np.max(np.abs(back.P - t.P)) < 1e-12
            assert np.max(np.abs(back.Q - t.Q)) < 1e-12

    def test_coefficients_stay_below_one(self):
        # a tiny negative coefficient folds to 0.0, where x % 1.0 gives 1.0
        t = TorusPoint([[-1e-17]], [[0.2]])
        assert 0.0 <= t.P[0, 0] < 1.0 and t.Q[0, 0] == 0.2
        om = SiegelPoint.from_omega([[1j]])
        back = phi_omega_inv(AbelianPoint.from_z([[0.3 - 1e-17j]]), om)
        assert 0.0 <= back.P[0, 0] < 1.0 and 0.0 <= back.Q[0, 0] < 1.0

    def test_integer_shifts_map_to_lattice(self, rng):
        om = rand_siegel_point(2, rng)
        p0 = rng.random((1, 2))
        q0 = rng.random((1, 2))
        z0 = (p0 + q0 @ om.X) + 1j * (q0 @ om.Y)
        lam = rng.integers(-3, 4, (1, 2)).astype(float)
        mu = rng.integers(-3, 4, (1, 2)).astype(float)
        z1 = ((p0 + mu) + (q0 + lam) @ om.X) + 1j * ((q0 + lam) @ om.Y)
        want = z0 + lam @ om.omega + mu
        assert np.max(np.abs(z1 - want)) < 1e-12


class TestCharacters:
    def test_zero_index_is_one(self, rng):
        om = rand_siegel_point(2, rng)
        idx = FourierIndex(np.zeros((1, 2), dtype=int), np.zeros((1, 2), dtype=int))
        z = rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2))
        assert abs(eval_E_omega(idx, z, om) - 1.0) < 1e-15
        t = TorusPoint(rng.random((1, 2)), rng.random((1, 2)))
        assert abs(eval_E_torus(idx, t) - 1.0) < 1e-15

    def test_unit_modulus(self, rng):
        for _ in range(50):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            om = rand_siegel_point(g, rng)
            idx = FourierIndex(rng.integers(-3, 4, (h, g)), rng.integers(-3, 4, (h, g)))
            z = rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g))
            assert abs(abs(eval_E_omega(idx, z, om)) - 1.0) < 1e-13

    def test_lattice_periodicity(self, rng):
        worst = 0.0
        for _ in range(100):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            om = rand_siegel_point(g, rng)
            idx = FourierIndex(rng.integers(-2, 3, (h, g)), rng.integers(-2, 3, (h, g)))
            z = rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g))
            lam = rng.integers(-3, 4, (h, g))
            mu = rng.integers(-3, 4, (h, g))
            shifted = z + lam @ om.omega + mu
            worst = max(worst, abs(eval_E_omega(idx, shifted, om)
                                   - eval_E_omega(idx, z, om)))
        assert worst < 1e-12

    def test_transport_through_phi(self, rng):
        worst = 0.0
        for _ in range(100):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            om = rand_siegel_point(g, rng)
            idx = FourierIndex(rng.integers(-2, 3, (h, g)), rng.integers(-2, 3, (h, g)))
            t = TorusPoint(rng.random((h, g)), rng.random((h, g)))
            z = phi_omega(t, om)
            worst = max(worst, abs(eval_E_omega(idx, z.Z, om) - eval_E_torus(idx, t)))
        assert worst < 1e-12

    def test_constant_on_lattice_orbits_and_canonical_idempotent(self, rng):
        om = rand_siegel_point(2, rng)
        z = AbelianPoint.from_z(rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2)))
        idx = FourierIndex(rng.integers(-2, 3, (1, 2)), rng.integers(-2, 3, (1, 2)))
        canon = phi_omega(phi_omega_inv(z, om), om)
        assert abs(eval_E_omega(idx, canon.Z, om) - eval_E_omega(idx, z.Z, om)) < 1e-11
        again = phi_omega(phi_omega_inv(canon, om), om)
        assert np.max(np.abs(again.Z - canon.Z)) < 1e-12


class TestInnerProduct:
    def test_normalized_constant(self, rng):
        om = rand_siegel_point(1, rng)
        one = lambda w: np.ones(w.shape[:-2], dtype=complex)
        val = inner_product(one, one, (1, 1), omega=om)
        assert abs(val - 1.0) < 1e-14

    def test_orthonormal_family_g1h1(self, rng):
        om = rand_siegel_point(1, rng)
        idxs = frequency_indices(1, 1, 1)
        p, q = torus_grid(1, 1, 8)
        table = character_table(idxs, p, q, om)
        gram = table.conj() @ table.T / p.shape[0]
        assert np.max(np.abs(gram - np.eye(len(idxs)))) < 1e-10

    def test_pullback_norm_one(self, rng):
        for _ in range(10):
            g, h = int(rng.integers(1, 3)), 1
            om = rand_siegel_point(g, rng)
            idx = FourierIndex(rng.integers(-1, 2, (h, g)), rng.integers(-1, 2, (h, g)))
            f = lambda w: eval_E_omega(idx, w, om)
            val = inner_product(f, f, (h, g), omega=om)
            assert abs(val - 1.0) < 1e-12

    def test_grid_guard(self):
        with pytest.raises(QuadratureGridError, match="quadrature grid infeasible"):
            torus_grid(3, 2, 4)


class TestEigenvalues:
    def test_zero_index(self, rng):
        om = rand_siegel_point(2, rng)
        idx = FourierIndex(np.zeros((1, 2), dtype=int), np.zeros((1, 2), dtype=int))
        assert eigenvalue_E(idx, om) == 0.0

    def test_nonpositive_real(self, rng):
        for _ in range(50):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            om = rand_siegel_point(g, rng)
            idx = FourierIndex(rng.integers(-3, 4, (h, g)), rng.integers(-3, 4, (h, g)))
            assert eigenvalue_E(idx, om) <= 0.0

    def test_finite_difference_oracle(self, rng):
        # the eigenvalue constant is derived, so it must match the operator
        for _ in range(10):
            g = int(rng.integers(1, 3))
            h = int(rng.integers(1, 3))
            om = rand_siegel_point(g, rng, floor=0.6)
            idx = FourierIndex(rng.integers(-2, 3, (h, g)), rng.integers(-2, 3, (h, g)))
            lam = eigenvalue_E(idx, om)
            z0 = rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g))
            pt = JacobiPoint.from_z(om, z0)
            val = laplacian_apply("omega", lambda z: eval_E_omega(idx, z, om), pt)
            base = eval_E_omega(idx, z0, om)
            if abs(lam) > 1e-10:
                assert abs(val / base - lam) / abs(lam) < 1e-5
            else:
                assert abs(val / base) < 1e-8

    def test_scalar_reference_case(self):
        # g = h = 1, Omega = i, A = 1, B = 0: the operator gives -pi^2
        om = SiegelPoint.from_omega([[1j]])
        idx = FourierIndex([[1]], [[0]])
        assert abs(eigenvalue_E(idx, om) + np.pi ** 2) < 1e-12


class TestTruncatedExpansion:
    def test_single_character(self, rng):
        om = rand_siegel_point(1, rng)
        idxs = frequency_indices(1, 1, 1)
        target = idxs[5]
        f = lambda z: eval_E_omega(target, z, om)
        ex = truncated_expansion(f, 1, om, (1, 1))
        hot = np.abs(ex.coefficients) > 1e-8
        assert hot.sum() == 1
        assert abs(ex.coefficients[hot][0] - 1.0) < 1e-10
        assert ex.residual < 1e-10

    def test_linear_combination(self, rng):
        om = rand_siegel_point(1, rng)
        idxs = frequency_indices(1, 1, 1)
        i1, i2 = idxs[2], idxs[7]
        f = lambda z: (3.0 * eval_E_omega(i1, z, om)
                       + 2j * eval_E_omega(i2, z, om))
        ex = truncated_expansion(f, 1, om, (1, 1))
        coeffs = dict(zip([(
            tuple(i.A.ravel()), tuple(i.B.ravel())) for i in ex.indices],
            ex.coefficients))
        k1 = (tuple(i1.A.ravel()), tuple(i1.B.ravel()))
        k2 = (tuple(i2.A.ravel()), tuple(i2.B.ravel()))
        assert abs(coeffs[k1] - 3.0) < 1e-10
        assert abs(coeffs[k2] - 2j) < 1e-10
        assert ex.residual < 1e-10

    def test_spectral_convergence(self, rng):
        om = rand_siegel_point(1, rng)

        def f(z):
            t = phi_inverse(z)
            return np.exp(np.cos(2 * np.pi * t[0]) * np.cos(2 * np.pi * t[1]))

        def phi_inverse(z):
            v = np.asarray(z).imag
            q = np.linalg.solve(om.Y.T, v.swapaxes(-1, -2)).swapaxes(-1, -2)
            p = np.asarray(z).real - q @ om.X
            return p[..., 0, 0], q[..., 0, 0]

        res = [truncated_expansion(f, m, om, (1, 1), n_nodes=16).residual
               for m in (1, 2, 3)]
        assert res[0] > res[1] > res[2]
