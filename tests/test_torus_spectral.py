import numpy as np
import pytest

from siegeljacobi.group_core import JacobiPoint, SiegelPoint
from siegeljacobi.geometry import laplacian_apply
from siegeljacobi.jacobi_domain import decompose_in_omega_basis, phi_omega
from siegeljacobi.torus_spectral import (FourierIndex, QuadratureGridError,
                                         TorusPoint, _c_matrix, character_table,
                                         eigenvalue_E, eval_E_omega,
                                         eval_E_torus, frequency_indices,
                                         inner_product, phi_omega_inv,
                                         torus_grid, truncated_expansion)
from conftest import rand_siegel_point


@pytest.mark.parametrize("make, names", [
    (lambda u, v: JacobiPoint(SiegelPoint.from_omega(1j * np.eye(2)), u, v), "U and V"),
    (TorusPoint, "P and Q"), (FourierIndex, "A and B")],
    ids=["JacobiPoint", "TorusPoint", "FourierIndex"])
@pytest.mark.parametrize("u, v", [(np.zeros((1, 2)), np.zeros((2, 2))),
                                  (np.zeros(2), np.zeros(2))], ids=["mismatched", "1-d"])
def test_pair_shapes_checked(make, names, u, v):
    with pytest.raises(ValueError, match="^%s must be equal-shape h x g matrices$" % names):
        make(u, v)


@pytest.mark.parametrize("make, names", [
    (lambda u, v: JacobiPoint(SiegelPoint.from_omega(1j * np.eye(2)), u, v), "U and V"),
    (TorusPoint, "P and Q")], ids=["JacobiPoint", "TorusPoint"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_pair_entries_finite(make, names, bad):
    for block in (0, 1):
        pair = [np.zeros((1, 2)), np.zeros((1, 2))]
        pair[block][0, 1] = bad
        with pytest.raises(ValueError, match="^%s has a non-finite entry$" % names):
            make(*pair)


def test_fourier_index_refuses_non_integral():
    # integral floats are frequencies; others raise, where a cast would truncate
    for a, b in (([[0.5]], [[1.7]]), ([[1]], [[np.inf]])):
        with pytest.raises(ValueError, match="non-(integer|finite) entry"):
            FourierIndex(a, b)
    idx = FourierIndex([[2.0, -1.0]], [[0, 3]])
    assert idx.A.dtype == idx.B.dtype == int and idx.A.tolist() == [[2, -1]]


def test_fourier_index_beyond_int64():
    # it used to escape from the int64 cast as OverflowError
    for a, b, what in (
            ([[2 ** 70]], [[0]], r"A entry 1180591620717411303424 at \(0, 0\)"),
            ([[0, 0]], [[1, -2 ** 63 - 1]], r"B entry -9223372036854775809 at \(0, 1\)")):
        with pytest.raises(ValueError, match=what + " is beyond int64"):
            FourierIndex(a, b)
    idx = FourierIndex([[-2 ** 63]], [[2 ** 63 - 1]])
    assert idx.A.dtype == int and idx.B[0, 0] == 2 ** 63 - 1


class TestPhiOmega:
    def test_q_zero_is_identity_on_p(self, rng):
        om = rand_siegel_point(2, rng)
        t = TorusPoint(rng.random((2, 2)), np.zeros((2, 2)))
        z = phi_omega(t.P, t.Q, om)
        assert np.allclose(z.real, t.P) and np.allclose(z.imag, 0)

    def test_basis_vector_maps_to_omega_row(self, rng):
        # the lift P = 0, Q = E_kj lands on the lattice vector E_kj Omega
        om = rand_siegel_point(3, rng)
        for (k, j) in ((0, 0), (1, 2)):
            q = np.zeros((2, 3))
            q[k, j] = 1.0
            z = phi_omega(np.zeros((2, 3)), q, om)
            want = q @ om.omega
            assert np.max(np.abs(z - want)) < 1e-14

    def test_round_trip(self, rng):
        for _ in range(100):
            g, h = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            om = rand_siegel_point(g, rng)
            t = TorusPoint(rng.random((h, g)), rng.random((h, g)))
            back = phi_omega_inv(phi_omega(t.P, t.Q, om), om)
            assert np.max(np.abs(back.P - t.P)) < 1e-12
            assert np.max(np.abs(back.Q - t.Q)) < 1e-12

    def test_stack_matches_each_point(self, rng):
        # one (N, h, g) call gives every point the bits of its own call
        for g, h in ((1, 1), (2, 1), (1, 2), (3, 2)):
            om = rand_siegel_point(g, rng)
            p, q = rng.random((2, 7, h, g))
            z = phi_omega(p, q, om)
            assert z.shape == (7, h, g) and z.dtype == complex
            for i in range(7):
                assert np.array_equal(z[i], phi_omega(p[i], q[i], om))

    def test_inverse_of_a_stack(self, rng):
        # phi_omega_inv gives back the canonical (P, Q) of each image point,
        # and decompose_in_omega_basis splits the whole stack with each
        # point's bits (with h = g it used to solve along the wrong axes)
        for g, h in ((1, 1), (2, 1), (1, 2), (3, 2), (2, 2), (3, 3)):
            om = rand_siegel_point(g, rng)
            p, q = rng.normal(scale=3.0, size=(2, 20, h, g))
            z = phi_omega(p, q, om)
            coords = decompose_in_omega_basis(z, om)
            assert np.max(np.abs(coords.a - p)) < 1e-12 and np.max(np.abs(coords.b - q)) < 1e-12
            for i in range(20):
                one = decompose_in_omega_basis(z[i], om)
                assert np.array_equal(one.a, coords.a[i]) and np.array_equal(one.b, coords.b[i])
                want = TorusPoint(p[i], q[i])
                back = phi_omega_inv(z[i], om)
                # a coefficient within rounding of an integer may come back
                # on the other side of it: compare on the circle
                for got, exp in ((back.P, want.P), (back.Q, want.Q)):
                    d = got - exp
                    assert np.max(np.abs(d - np.round(d))) < 1e-11

    def test_coefficients_stay_below_one(self):
        # a tiny negative coefficient folds to 0.0, where x % 1.0 gives 1.0
        t = TorusPoint([[-1e-17]], [[0.2]])
        assert 0.0 <= t.P[0, 0] < 1.0 and t.Q[0, 0] == 0.2
        om = SiegelPoint.from_omega([[1j]])
        back = phi_omega_inv([[0.3 - 1e-17j]], om)
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
            z = phi_omega(t.P, t.Q, om)
            worst = max(worst, abs(eval_E_omega(idx, z, om) - eval_E_torus(idx, t)))
        assert worst < 1e-12

    def test_flat_character_is_the_flat_formula(self, rng):
        # eval_E_torus is eval_E_omega at Omega = iI, with the bits of the
        # flat formula it replaced
        for _ in range(200):
            g, h = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            idx = FourierIndex(rng.integers(-3, 4, (h, g)), rng.integers(-3, 4, (h, g)))
            t = TorusPoint(rng.random((h, g)), rng.random((h, g)))
            phase = np.sum(idx.A * t.P, axis=(-2, -1)) + np.sum(idx.B * t.Q, axis=(-2, -1))
            assert eval_E_torus(idx, t) == np.exp(2j * np.pi * phase)

    def test_constant_on_lattice_orbits_and_canonical_idempotent(self, rng):
        om = rand_siegel_point(2, rng)
        z = rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2))
        idx = FourierIndex(rng.integers(-2, 3, (1, 2)), rng.integers(-2, 3, (1, 2)))
        t = phi_omega_inv(z, om)
        canon = phi_omega(t.P, t.Q, om)
        assert abs(eval_E_omega(idx, canon, om) - eval_E_omega(idx, z, om)) < 1e-11
        t = phi_omega_inv(canon, om)
        again = phi_omega(t.P, t.Q, om)
        assert np.max(np.abs(again - canon)) < 1e-12


def parent_c(idx, om):
    """C = (B - AX) Y^{-1}, solved afresh: the formula before the memo."""
    return np.linalg.solve(om.Y.T, (idx.B - idx.A @ om.X).T).T


def parent_eval_E_omega(idx, z, om):
    z = np.asarray(z, dtype=complex)
    c = parent_c(idx, om)
    phase = np.sum(idx.A * z.real, axis=(-2, -1)) + np.sum(c * z.imag, axis=(-2, -1))
    return np.exp(2j * np.pi * phase)


def parent_eigenvalue_E(idx, om):
    c = parent_c(idx, om)
    return float(-np.pi ** 2 * (np.trace(idx.A @ om.Y @ idx.A.T) + np.trace(c @ om.Y @ c.T)))


def hex_of(vals):
    vals = np.atleast_1d(np.asarray(vals, dtype=complex))
    return [(float(v.real).hex(), float(v.imag).hex()) for v in vals]


class TestCharacterMemo:
    """Each index keeps C for the last Omega it met, by identity; every value
    must be that of a fresh index, and of the formulas before the memo."""

    @staticmethod
    def draw(rng, h=1, g=2):
        return (FourierIndex(rng.integers(-3, 4, (h, g)), rng.integers(-3, 4, (h, g))),
                rng.normal(size=(5, h, g)) + 1j * rng.normal(size=(5, h, g)))

    def test_revisited_omega_matches_a_fresh_index(self, rng):
        for g, h in ((1, 1), (2, 1), (2, 2), (3, 2)):
            idx, z = self.draw(rng, h, g)
            om1, om2 = rand_siegel_point(g, rng), rand_siegel_point(g, rng)
            seen = [(eval_E_omega(idx, z, om), eigenvalue_E(idx, om)) for om in (om1, om2, om1)]
            for om, (vals, lam) in zip((om1, om2, om1), seen):
                fresh = FourierIndex(idx.A, idx.B)
                assert hex_of(vals) == hex_of(eval_E_omega(fresh, z, om))
                assert lam.hex() == eigenvalue_E(FourierIndex(idx.A, idx.B), om).hex()

    def test_equal_point_built_twice_is_solved_again(self, rng, monkeypatch):
        # the memo keys on identity: an equal point built anew is a miss
        idx, z = self.draw(rng)
        om = rand_siegel_point(2, rng)
        twin = SiegelPoint(om.X, om.Y)
        eval_E_omega(idx, z, om)
        solves = []
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *a, _solve=np.linalg.solve: solves.append(1) or _solve(*a))
        assert hex_of(eval_E_omega(idx, z, twin)) == hex_of(eval_E_omega(idx, z, om))
        eval_E_omega(idx, z, om)
        assert len(solves) == 2

    def test_two_indices_at_one_omega_keep_their_own_c(self, rng):
        om = rand_siegel_point(2, rng)
        (i1, z), (i2, _) = self.draw(rng), self.draw(rng)
        while np.array_equal(i1.A, i2.A) and np.array_equal(i1.B, i2.B):
            i2, _ = self.draw(rng)
        v1, v2, v1_again = (eval_E_omega(i, z, om) for i in (i1, i2, i1))
        assert hex_of(v1) == hex_of(v1_again) == hex_of(parent_eval_E_omega(i1, z, om))
        assert hex_of(v2) == hex_of(parent_eval_E_omega(i2, z, om))
        assert not np.array_equal(_c_matrix(i1, om), _c_matrix(i2, om))

    def test_flat_path_between_omega_calls(self, rng):
        # eval_E_torus builds its own Omega = iI, a new point on every call
        for g, h in ((1, 1), (2, 1), (2, 2)):
            idx, z = self.draw(rng, h, g)
            om = rand_siegel_point(g, rng)
            t = TorusPoint(rng.random((h, g)), rng.random((h, g)))
            flat = np.exp(2j * np.pi * (np.sum(idx.A * t.P) + np.sum(idx.B * t.Q)))
            before = eval_E_omega(idx, z, om)
            assert eval_E_torus(idx, t) == flat
            assert hex_of(eval_E_omega(idx, z, om)) == hex_of(before)
            assert eval_E_torus(idx, t) == flat == eval_E_torus(FourierIndex(idx.A, idx.B), t)

    def test_hex_equal_to_the_formulas_before_the_memo(self, rng):
        for _ in range(60):
            g, h = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            idx, z = self.draw(rng, h, g)
            om = rand_siegel_point(g, rng)
            for zz in (z, z[0]):   # a stack and one point
                want = parent_eval_E_omega(idx, zz, om)
                assert hex_of(eval_E_omega(idx, zz, om)) == hex_of(want)
            assert eigenvalue_E(idx, om).hex() == parent_eigenvalue_E(idx, om).hex()


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

    def test_expansion_refused_before_allocating(self, rng):
        # 9^4 grid points are within the cap, but not times 7^4 characters
        # (a 250 MB table); f is never called
        with pytest.raises(QuadratureGridError, match=r"9\^4 points x 7\^4 characters"):
            truncated_expansion(pytest.fail, 3, rand_siegel_point(2, rng), (1, 2))


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
