import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegeljacobi.group_core import (JacobiGroupElement, JacobiPoint,
                                     SiegelPoint, SymplecticInt, act_jacobi)
from siegeljacobi.jacobi_domain import (decompose_in_omega_basis, in_F_gh,
                                        in_P_omega, jacobi_membership,
                                        jacobi_reduce)
from siegeljacobi.minkowski import DEFAULT_EPS
from siegeljacobi.siegel import siegel_membership
from conftest import (canonicalize_cell_coords, cell_face_oracle,
                      is_plus_minus_identity, rand_heisenberg,
                      rand_interior_jacobi, rand_interior_siegel,
                      rand_jacobi_element, rand_jacobi_point,
                      rand_siegel_point, siegel_flags_oracle)


def unit_matrix(h, g, k, j):
    e = np.zeros((h, g))
    e[k, j] = 1.0
    return e


class TestDecompose:
    def test_basis_vectors(self, rng):
        for _ in range(20):
            g, h = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            om = rand_siegel_point(g, rng)
            k, j = int(rng.integers(h)), int(rng.integers(g))
            e = unit_matrix(h, g, k, j)
            c = decompose_in_omega_basis(e, om)
            assert np.allclose(c.a, e, atol=1e-12) and np.allclose(c.b, 0, atol=1e-12)
            c = decompose_in_omega_basis(e @ om.omega, om)
            assert np.allclose(c.a, 0, atol=1e-11) and np.allclose(c.b, e, atol=1e-12)

    def test_round_trip(self, rng):
        for _ in range(100):
            g, h = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            om = rand_siegel_point(g, rng)
            a = rng.normal(size=(h, g))
            b = rng.normal(size=(h, g))
            c = decompose_in_omega_basis(a + b @ om.omega, om)
            assert np.max(np.abs(c.a - a)) < 1e-10
            assert np.max(np.abs(c.b - b)) < 1e-10

    def test_reconstruction_invariant(self, rng):
        for _ in range(50):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            om = rand_siegel_point(g, rng)
            w = rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g))
            c = decompose_in_omega_basis(w, om)
            assert np.max(np.abs(c.a + c.b @ om.omega - w)) < 1e-10


class TestPOmega:
    def test_zero_is_boundary_member(self, rng):
        om = rand_siegel_point(2, rng)
        res = in_P_omega(np.zeros((1, 2)), om)
        assert res.inside and res.on_boundary

    def test_center_is_interior(self, rng):
        om = SiegelPoint.from_omega([[2j]])
        res = in_P_omega([[0.5 + 1j]], om)  # = E/2 + F/2
        assert res.inside and not res.on_boundary

    def test_two_e11_outside(self, rng):
        om = SiegelPoint.from_omega([[2j]])
        res = in_P_omega([[2.0]], om)
        assert not res.inside


class TestFlagsMatchOracle:
    """in_P_omega, jacobi_membership and jacobi_reduce against the oracles:
    a member is on the boundary when its base point is (siegel_flags_oracle)
    or some cell coefficient is within eps of 0 or 1 (cell_face_oracle)."""

    @staticmethod
    def _flat(z, omega):
        c = decompose_in_omega_basis(z, omega)
        return np.concatenate([c.a.ravel(), c.b.ravel()])

    @pytest.mark.parametrize("g, h", [(1, 1), (2, 1), (2, 2), (3, 1)])
    @pytest.mark.parametrize("eps", [DEFAULT_EPS, 3e-2])
    def test_reduced_points(self, g, h, eps):
        rng = np.random.default_rng(10 * g + h)
        flagged = 0
        for _ in range(30):
            cert = jacobi_reduce(rand_jacobi_point(g, h, rng), eps=eps)
            om = cert.reduced.omega
            face = cell_face_oracle(self._flat(cert.reduced.Z, om), eps)
            want = siegel_flags_oracle(om, eps=eps)[1] or face
            assert in_P_omega(cert.reduced.Z, om, eps) == (True, face)
            assert jacobi_membership(cert.reduced, eps=eps) == (True, want)
            assert cert.on_boundary == want
            flagged += want
        assert eps == DEFAULT_EPS or 0 < flagged < 30

    @pytest.mark.parametrize("g, h", [(1, 1), (2, 1), (2, 2)])
    def test_face_points_and_strict_interior(self, g, h):
        rng = np.random.default_rng(g + h)
        base = rand_interior_siegel(g, rng)
        a = rng.uniform(0.1, 0.9, (h, g))
        b = rng.uniform(0.1, 0.9, (h, g))
        inner = a + b @ base.omega
        assert in_P_omega(inner, base) == (True, False)
        assert in_P_omega(inner, base, eps=-DEFAULT_EPS) == (True, False)
        for coef in (a, b):
            for value in (0.0, 1.0):
                moved = coef.copy()
                moved[-1, -1] = value
                z = (moved + b @ base.omega) if coef is a else (a + moved @ base.omega)
                assert cell_face_oracle(self._flat(z, base))
                assert in_P_omega(z, base) == (True, True)
                assert jacobi_membership(JacobiPoint.from_z(base, z)) == (True, True)
                assert in_P_omega(z, base, eps=-DEFAULT_EPS) == (False, False)


class TestInFgh:
    def test_standard_point(self):
        for g in (1, 2):
            p = JacobiPoint.from_z(SiegelPoint.from_omega(1j * np.eye(g)),
                                   np.zeros((1, g)))
            assert in_F_gh(p)

    def test_unreduced_base_fails(self):
        p = JacobiPoint.from_z(SiegelPoint.from_omega([[0.3 + 0.05j]]),
                               np.zeros((1, 1)))
        assert not in_F_gh(p)

    def test_half_cell_point(self):
        p = JacobiPoint.from_z(SiegelPoint.from_omega([[2j]]), [[0.5 + 1j]])
        assert in_F_gh(p)

    def test_membership_flags_take_the_base_boundary(self):
        def at(omega, z):
            return jacobi_membership(JacobiPoint.from_z(SiegelPoint.from_omega(omega), z))

        # Omega = i lies on |det(C Omega + D)| = 1, Omega = 2i does not
        assert at([[1j]], [[0.3 + 0.4j]]) == (True, True)
        assert at([[2j]], [[0.3 + 0.4j]]) == (True, False)
        assert at([[2j]], [[0.0]]) == (True, True)
        assert at([[2j]], [[2.0]]) == (False, False)
        assert at([[0.3 + 0.05j]], [[0.0]]) == (False, False)


class TestJacobiReduce:
    def test_interior_point_fixed(self, rng):
        for _ in range(20):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            p = rand_interior_jacobi(g, h, rng)
            cert = jacobi_reduce(p)
            assert np.max(np.abs(cert.reduced.Z - p.Z)) < 1e-10
            assert np.max(np.abs(cert.reduced.omega.omega - p.omega.omega)) < 1e-10
            assert is_plus_minus_identity(cert.gammaJ.m)
            assert not cert.on_boundary

    def test_heisenberg_recovery_exact(self, rng):
        for _ in range(30):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            p0 = rand_interior_jacobi(g, h, rng)
            heis = rand_heisenberg(g, h, rng, span=3)
            x = JacobiGroupElement(SymplecticInt.identity(g), heis)
            cert = jacobi_reduce(act_jacobi(x, p0))
            assert np.max(np.abs(cert.reduced.Z - p0.Z)) < 1e-9
            if cert.gammaJ.m.is_identity():
                assert np.array_equal(cert.gammaJ.heis.lam, heis.lam)
                assert np.array_equal(cert.gammaJ.heis.mu, heis.mu)

    def test_random_round_trips(self, rng):
        for _ in range(100):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            p0 = rand_interior_jacobi(g, h, rng)
            x = rand_jacobi_element(g, h, rng)
            pt = act_jacobi(x, p0)
            cert = jacobi_reduce(pt)
            back = act_jacobi(cert.gammaJ, cert.reduced)
            scale = max(1.0, np.max(np.abs(pt.Z)))
            assert np.max(np.abs(back.Z - pt.Z)) / scale < 1e-8
            assert np.max(np.abs(back.omega.omega - pt.omega.omega)) < 1e-8
            assert in_F_gh(cert.reduced)
            assert np.max(np.abs(cert.reduced.Z - p0.Z)) < 1e-8
            assert np.max(np.abs(cert.reduced.omega.omega - p0.omega.omega)) < 1e-8

    def test_covering_random_points(self, rng):
        # arbitrary points land in the domain, all (g, h) in {1,2}^2
        for _ in range(1000):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            p = rand_jacobi_point(g, h, rng)
            cert = jacobi_reduce(p)
            assert in_F_gh(cert.reduced)

    def test_fractional_coordinates(self, rng):
        for _ in range(50):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            p = rand_jacobi_point(g, h, rng)
            cert = jacobi_reduce(p)
            c = decompose_in_omega_basis(cert.reduced.Z, cert.reduced.omega)
            flat = np.concatenate([c.a.ravel(), c.b.ravel()])
            assert np.all(flat >= -1e-12) and np.all(flat < 1.0 + 1e-12)

    @pytest.mark.parametrize("z", [0.3 - 1e-17j, 0.7 + 1e-17j])
    def test_coefficient_rounding_to_one_is_folded(self, z):
        # b = -1e-17 has floor -1 and fraction 1.0 in floating point; in the
        # second point the complement of b = 1e-17, (-b) % 1, rounds to 1.0
        p = JacobiPoint.from_z(SiegelPoint.from_omega(1j * np.eye(1)),
                               np.array([[z]]))
        cert = jacobi_reduce(p)
        c = decompose_in_omega_basis(cert.reduced.Z, cert.reduced.omega)
        flat = np.concatenate([c.a.ravel(), c.b.ravel()])
        assert np.all(flat >= 0.0) and np.all(flat < 1.0)
        back = act_jacobi(cert.gammaJ, cert.reduced)
        assert np.max(np.abs(back.Z - p.Z)) < 1e-12
        assert np.max(np.abs(back.omega.omega - p.omega.omega)) < 1e-12
        a, b = canonicalize_cell_coords(np.array([[z.real]]), np.array([[z.imag]]))
        assert 0.0 <= a[0, 0] < 1.0 and 0.0 <= b[0, 0] < 1.0

    def test_essential_uniqueness_sampling(self, rng):
        # interior point mapped into the domain by a nontrivial element must
        # come from +-I with the forced Heisenberg part
        hits = 0
        for _ in range(300):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            p = rand_interior_jacobi(g, h, rng)
            x = rand_jacobi_element(g, h, rng, word_len=2, span=1)
            try:
                q = act_jacobi(x, p)
            except Exception:
                continue
            if not in_F_gh(q):
                continue
            res = in_P_omega(q.Z, q.omega)
            member, boundary = siegel_membership(q.omega)
            if res.on_boundary or boundary:
                continue
            hits += 1
            assert is_plus_minus_identity(x.m)
            if x.m.is_identity():
                assert np.all(x.heis.lam == 0) and np.all(x.heis.mu == 0)
            else:
                assert np.all(x.heis.lam == -1) and np.all(x.heis.mu == -1)
        assert hits > 10


def test_certificate_inverse_direction(rng):
    p = rand_jacobi_point(2, 1, rng)
    cert = jacobi_reduce(p)
    forward = act_jacobi(cert.gammaJ.inverse(), p)
    assert np.max(np.abs(forward.Z - cert.reduced.Z)) < 1e-8
    assert np.max(np.abs(forward.omega.omega - cert.reduced.omega.omega)) < 1e-8


class TestReducedPointProperties:
    """A reduced (2, 2) point off the boundary is a fixed point of the reducer."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_certificate_and_idempotence(self, seed):
        p = rand_jacobi_point(2, 2, np.random.default_rng(seed))
        cert = jacobi_reduce(p)
        back = act_jacobi(cert.gammaJ, cert.reduced)
        assert np.max(np.abs(back.omega.omega - p.omega.omega)) < 1e-8
        assert np.max(np.abs(back.Z - p.Z)) / max(1.0, np.max(np.abs(p.Z))) < 1e-8
        if cert.on_boundary:
            return
        again = jacobi_reduce(cert.reduced)
        assert again.gammaJ == JacobiGroupElement.identity(2, 2)
        assert not again.on_boundary
        assert again.reduced.omega.omega.tobytes() == cert.reduced.omega.omega.tobytes()
        assert np.max(np.abs(again.reduced.Z - cert.reduced.Z)) < 1e-12
