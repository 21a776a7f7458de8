import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegeljacobi import group_core
from siegeljacobi.intmat import as_imat
from siegeljacobi.group_core import (HeisenbergInt, IllConditionedActionError,
                                     JacobiGroupElement, JacobiPoint,
                                     SiegelPoint, SymplecticInt,
                                     act_jacobi, act_siegel, j_matrix,
                                     jacobi_mul, kappa_fix, symplectic_check)
from siegeljacobi.minkowski import minkowski_reduce
from conftest import (SKEWED_YS, rand_heisenberg, rand_jacobi_element, rand_jacobi_point,
                      rand_siegel_point, rand_symplectic, rand_unimodular)


class TestSymplecticCheck:
    def test_j_satisfies_its_own_relation(self):
        assert symplectic_check(j_matrix(2))

    def test_identity(self):
        assert symplectic_check(np.eye(4, dtype=int))

    def test_diag_2111_fails(self):
        # direct integer evaluation of t(M) J M
        assert not symplectic_check(np.diag([2, 1, 1, 1]))

    def test_dimension_error(self):
        with pytest.raises(ValueError, match="not 2gx2g"):
            symplectic_check(np.eye(3, dtype=int))


def _product_check(m):
    """The reference: t(M) J M = J as object-array products."""
    m = as_imat(m)
    j = j_matrix(m.shape[0] // 2)
    return bool(np.array_equal(m.T @ j @ m, j))


class TestGroupLawProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(g=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_check_agrees_with_product_oracle(self, g, seed, data):
        m = rand_symplectic(g, np.random.default_rng(seed)).matrix
        assert symplectic_check(m) and _product_check(m)
        i = data.draw(st.integers(0, 2 * g - 1))
        j = data.draw(st.integers(0, 2 * g - 1))
        bad = m.copy()
        bad[i, j] += data.draw(st.sampled_from([-1, 1]))
        # a one-entry change usually breaks the relation, but not always
        # (on the identity, entry (0, g) makes a translation)
        assert symplectic_check(bad) == _product_check(bad)

    def test_one_entry_changes_are_mostly_rejected(self, rng):
        verdicts = []
        for g in (1, 2, 3):
            for _ in range(20):
                m = rand_symplectic(g, rng).matrix
                i, j = rng.integers(0, 2 * g, 2)
                m[i, j] += 1
                verdicts.append(symplectic_check(m))
                assert verdicts[-1] == _product_check(m)
        assert verdicts.count(False) > 0.8 * len(verdicts)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(g=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_products_inverses_and_identity(self, g, seed):
        rng = np.random.default_rng(seed)
        a, b = rand_symplectic(g, rng), rand_symplectic(g, rng)
        ab = a * b
        assert np.array_equal(ab.matrix, a.matrix @ b.matrix)
        assert symplectic_check(ab.matrix) and _product_check(ab.matrix)
        assert (a * a.inverse()).is_identity() and (a.inverse() * a).is_identity()
        eye = SymplecticInt.identity(g)
        s = rng.integers(-2, 3, (g, g))
        for m in (a, ab, eye, -eye, a * a.inverse(), SymplecticInt.translation(s + s.T),
                  SymplecticInt.inversion(g)):
            assert m.is_identity() == (m == eye)

    def test_product_coerces_once(self, rng, monkeypatch):
        # the group law keeps elements symplectic, so a product, an inverse and a
        # negation neither coerce nor check; the public constructor does each once
        pairs = [(rand_symplectic(g, rng), rand_symplectic(g, rng)) for g in (1, 2, 3)]
        calls = []
        for name in ("as_imat", "symplectic_check"):
            def counted(m, name=name, f=getattr(group_core, name)):
                calls.append(name)
                return f(m)
            monkeypatch.setattr(group_core, name, counted)
        for a, b in pairs:
            for m in (a * b, a.inverse(), -a):
                assert calls == []
                assert SymplecticInt(m.A, m.B, m.C, m.D) == m
                assert sorted(calls) == ["as_imat", "symplectic_check"]
                calls.clear()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(g=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_unchecked_words_stay_exact_and_symplectic(self, g, seed):
        # random words of products, inverses, negations and built-in forms;
        # the public check on a copy of the matrix is the oracle
        rng = np.random.default_rng(seed)
        s = rng.integers(-2, 3, (g, g))
        forms = (SymplecticInt.identity(g), SymplecticInt.inversion(g),
                 SymplecticInt.translation(s + s.T),
                 SymplecticInt.gl_embed(rand_unimodular(g, rng, steps=2, span=2)))
        m, words = forms[3], list(forms)
        for k in rng.integers(0, 4, 12):
            f = forms[rng.integers(0, 4)]
            m = m * f if k == 0 else f * m if k == 1 else m.inverse() if k == 2 else -m
            words.append(m)
        for m in words:
            assert all(type(v) is int for v in m._matrix.flat)
            assert symplectic_check(m.matrix)

    def test_matrix_is_a_copy(self, rng):
        # products read the stored matrix, so .matrix must hand out a copy
        for g in (1, 2, 3):
            a, b = rand_symplectic(g, rng), rand_symplectic(g, rng)
            ab = a * b
            a.matrix[0, 0] += 7
            assert a * b == ab and symplectic_check(a.matrix)


class TestActSiegel:
    def test_identity_fixes_everything(self, rng):
        for g in (1, 2, 3):
            p = rand_siegel_point(g, rng)
            q = act_siegel(SymplecticInt.identity(g), p)
            assert np.allclose(q.omega, p.omega, atol=1e-14)

    def test_inversion_fixes_i(self):
        p = SiegelPoint.from_omega([[1j]])
        q = act_siegel(SymplecticInt.inversion(1), p)
        assert abs(q.omega[0, 0] - 1j) < 1e-15

    def test_translation(self, rng):
        for g in (1, 2):
            s = rng.integers(-3, 4, (g, g))
            s = s + s.T
            p = rand_siegel_point(g, rng)
            q = act_siegel(SymplecticInt.translation(s), p)
            assert np.allclose(q.omega, p.omega + s, atol=1e-13)

    def test_imaginary_part_stays_positive(self, rng):
        for _ in range(100):
            g = int(rng.integers(1, 3))
            p = rand_siegel_point(g, rng)
            m = rand_symplectic(g, rng)
            q = act_siegel(m, p)
            assert np.linalg.eigvalsh(q.Y)[0] > 0

    def test_group_action_law(self, rng):
        for _ in range(50):
            g = int(rng.integers(1, 3))
            p = rand_siegel_point(g, rng)
            m1 = rand_symplectic(g, rng, word_len=3)
            m2 = rand_symplectic(g, rng, word_len=3)
            lhs = act_siegel(m1 * m2, p).omega
            rhs = act_siegel(m1, act_siegel(m2, p)).omega
            scale = max(1.0, np.max(np.abs(lhs)))
            assert np.max(np.abs(lhs - rhs)) / scale < 1e-10


def heis_element(a: HeisenbergInt) -> JacobiGroupElement:
    """The Heisenberg element a as a Jacobi element with M = I."""
    return JacobiGroupElement(SymplecticInt.identity(a.g), a)


class TestHeisenberg:
    """The Heisenberg group is the M = I part of the Jacobi group, so its law
    is jacobi_mul's; the closed forms are written out in the tests."""

    def test_identity_element(self, rng):
        x = heis_element(rand_heisenberg(2, 2, rng))
        assert jacobi_mul(x, JacobiGroupElement.identity(2, 2)) == x

    def test_associativity_exact(self, rng):
        for _ in range(50):
            g, h = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            x, y, z = (heis_element(rand_heisenberg(g, h, rng)) for _ in range(3))
            assert jacobi_mul(jacobi_mul(x, y), z) == jacobi_mul(x, jacobi_mul(y, z))

    def test_square_doubles_and_twists(self, rng):
        a = rand_heisenberg(3, 2, rng)
        sq = jacobi_mul(heis_element(a), heis_element(a)).heis
        assert np.array_equal(sq.lam, 2 * a.lam)
        assert np.array_equal(sq.mu, 2 * a.mu)
        want = 2 * a.kappa + a.lam @ a.mu.T - a.mu @ a.lam.T
        assert np.array_equal(sq.kappa, want)

    def test_invariant_always_holds(self, rng):
        for _ in range(100):
            g, h = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            out = jacobi_mul(heis_element(rand_heisenberg(g, h, rng)),
                             heis_element(rand_heisenberg(g, h, rng))).heis
            sym = out.kappa + out.mu @ out.lam.T
            assert np.array_equal(sym, sym.T)

    def test_inverse(self, rng):
        # (l, m; k)^{-1} = (-l, -m; -k + l t(m) - m t(l))
        for _ in range(30):
            g, h = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            a = rand_heisenberg(g, h, rng)
            x = heis_element(a).inverse()
            assert x.m.is_identity()
            assert np.array_equal(x.heis.lam, -a.lam)
            assert np.array_equal(x.heis.mu, -a.mu)
            assert np.array_equal(x.heis.kappa, -a.kappa + a.lam @ a.mu.T - a.mu @ a.lam.T)

    def test_kappa_fix_minimal(self, rng):
        lam = rng.integers(-3, 4, (3, 2))
        mu = rng.integers(-3, 4, (3, 2))
        k = kappa_fix(lam, mu)
        sym = k + mu @ lam.T
        assert np.array_equal(sym, sym.T)
        assert np.all(np.tril(k) == 0)


class TestJacobiGroup:
    def test_identity(self, rng):
        x = rand_jacobi_element(2, 2, rng)
        assert jacobi_mul(x, JacobiGroupElement.identity(2, 2)) == x
        assert jacobi_mul(JacobiGroupElement.identity(2, 2), x) == x

    def test_reduces_to_heisenberg_when_m_is_identity(self, rng):
        # (l, m; k)(l', m'; k') = (l + l', m + m'; k + k' + l t(m') - m t(l'))
        for _ in range(50):
            g, h = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            a, b = rand_heisenberg(g, h, rng), rand_heisenberg(g, h, rng)
            x = jacobi_mul(heis_element(a), heis_element(b))
            assert x.m.is_identity()
            assert np.array_equal(x.heis.lam, a.lam + b.lam)
            assert np.array_equal(x.heis.mu, a.mu + b.mu)
            assert np.array_equal(x.heis.kappa,
                                  a.kappa + b.kappa + a.lam @ b.mu.T - a.mu @ b.lam.T)

    def test_associativity_exact(self, rng):
        for _ in range(30):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            x, y, z = (rand_jacobi_element(g, h, rng, word_len=3) for _ in range(3))
            assert jacobi_mul(jacobi_mul(x, y), z) == jacobi_mul(x, jacobi_mul(y, z))

    def test_inverse_exact(self, rng):
        for _ in range(30):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            x = rand_jacobi_element(g, h, rng)
            assert jacobi_mul(x, x.inverse()) == JacobiGroupElement.identity(g, h)
            assert jacobi_mul(x.inverse(), x) == JacobiGroupElement.identity(g, h)


class TestActJacobi:
    def test_identity(self, rng):
        p = rand_jacobi_point(2, 2, rng)
        q = act_jacobi(JacobiGroupElement.identity(2, 2), p)
        assert np.allclose(q.Z, p.Z) and np.allclose(q.omega.omega, p.omega.omega)

    def test_heisenberg_translation(self, rng):
        # with M = I the fiber moves by lambda Omega + mu
        for _ in range(20):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            p = rand_jacobi_point(g, h, rng)
            heis = rand_heisenberg(g, h, rng)
            x = JacobiGroupElement(SymplecticInt.identity(g), heis)
            q = act_jacobi(x, p)
            want = p.Z + heis.lam.astype(float) @ p.omega.omega + heis.mu.astype(float)
            assert np.allclose(q.Z, want, atol=1e-12)
            assert np.allclose(q.omega.omega, p.omega.omega)

    def test_round_trip_inverse(self, rng):
        for _ in range(50):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            p = rand_jacobi_point(g, h, rng)
            x = rand_jacobi_element(g, h, rng)
            back = act_jacobi(x.inverse(), act_jacobi(x, p))
            assert np.max(np.abs(back.Z - p.Z)) < 1e-10
            assert np.max(np.abs(back.omega.omega - p.omega.omega)) < 1e-10

    def test_compatibility_with_multiplication(self, rng):
        for _ in range(50):
            g, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            p = rand_jacobi_point(g, h, rng)
            x = rand_jacobi_element(g, h, rng, word_len=3)
            y = rand_jacobi_element(g, h, rng, word_len=3)
            lhs = act_jacobi(jacobi_mul(x, y), p)
            rhs = act_jacobi(x, act_jacobi(y, p))
            assert np.max(np.abs(lhs.Z - rhs.Z)) < 1e-10
            assert np.max(np.abs(lhs.omega.omega - rhs.omega.omega)) < 1e-10


class TestValidation:
    def test_siegel_point_requires_posdef(self):
        with pytest.raises(ValueError):
            SiegelPoint(np.zeros((2, 2)), np.diag([1.0, -1.0]))

    def test_symplectic_blocks_checked(self):
        with pytest.raises(ValueError):
            SymplecticInt(np.eye(2, dtype=int), np.zeros((2, 2), dtype=int),
                          np.zeros((2, 2), dtype=int), 2 * np.eye(2, dtype=int))

    @pytest.mark.parametrize("build", [
        lambda: SymplecticInt.identity(0), lambda: SymplecticInt.inversion(0),
        lambda: SymplecticInt.translation(np.zeros((0, 0), int)),
        lambda: SymplecticInt.gl_embed(np.zeros((0, 0), int))],
        ids=["identity", "inversion", "translation", "gl_embed"])
    def test_degenerate_forms_refused(self, build):
        with pytest.raises(ValueError, match="not 2gx2g"):
            build()

    def test_heisenberg_invariant_checked(self):
        lam = np.array([[1, 0], [0, 0]])
        mu = np.array([[0, 0], [1, 0]])
        with pytest.raises(ValueError):
            HeisenbergInt(lam, mu, np.zeros((2, 2), dtype=int))


class TestConditionGuard:
    """IllConditionedActionError fires where cond(C Omega + D) > COND_LIMIT."""

    # [[1, k], [0, 1]] has cond(D) = s_max / s_min = s_max^2 with
    # s_max^2 + s_min^2 = k^2 + 2: about 1e8, 1.000e12 - 2e6, 1.000e12 + 2, 1e14
    @pytest.mark.parametrize("k, fires", [(10 ** 4, False), (10 ** 6 - 1, False),
                                          (10 ** 6, True), (10 ** 7, True)])
    def test_c_zero_on_both_sides_of_the_limit(self, k, fires):
        m = SymplecticInt.gl_embed([[1, k], [0, 1]])
        assert m.cond_bounded == (k == 10 ** 4)  # beyond the bound the SVD decides
        p = SiegelPoint.from_omega(1j * np.eye(2))
        jp = JacobiPoint.from_z(p, [[0.3 + 0.1j, 0.2j]])
        x = JacobiGroupElement(m, HeisenbergInt.identity(2, 1))
        for act in (lambda: act_siegel(m, p), lambda: act_siegel(m.matrix.astype(float), p),
                    lambda: act_jacobi(x, jp)):
            if fires:
                with pytest.raises(IllConditionedActionError):
                    act()
            else:
                act()

    @pytest.mark.parametrize("y22, fires", [(1e-10, False), (1e-14, True)])
    def test_near_singular_c_nonzero(self, y22, fires):
        m = SymplecticInt.inversion(2)
        assert not m.cond_bounded
        p = SiegelPoint(np.zeros((2, 2)), np.diag([1.0, y22]))
        if fires:
            with pytest.raises(IllConditionedActionError):
                act_siegel(m, p)
        else:
            act_siegel(m, p)

    def test_bound_holds_for_c_zero_words(self, rng):
        for g in (1, 2, 3):
            for _ in range(20):
                s = rng.integers(-3, 4, (g, g))
                m = (SymplecticInt.translation(s + s.T)
                     * SymplecticInt.gl_embed(rand_unimodular(g, rng, steps=6, span=3)))
                d = m.float_blocks[3]
                assert not m.C.any() and m.cond_bounded
                assert np.linalg.cond(d) <= np.linalg.norm(d) * np.linalg.norm(m.float_blocks[0])


def test_c_zero_steps_act_as_exact_congruences(rng):
    # a cond_bounded element skips the solve; on Y = SKEWED_YS[1] the solve
    # of its raw float matrix loses symmetry, the congruence does not
    for g in (1, 2, 3):
        for _ in range(10):
            s = rng.integers(-3, 4, (g, g))
            m = (SymplecticInt.translation(s + s.T)
                 * SymplecticInt.gl_embed(rand_unimodular(g, rng, steps=6, span=3)))
            p = rand_siegel_point(g, rng)
            got = act_siegel(m, p).omega
            want = act_siegel(m.matrix.astype(float), p).omega
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    y = SKEWED_YS[1]
    cert = minkowski_reduce(y)
    m = SymplecticInt.gl_embed(cert.transform.entries)
    p = SiegelPoint(np.zeros((2, 2)), y)
    with pytest.raises(IllConditionedActionError, match="lost symmetry"):
        act_siegel(m.matrix.astype(float), p)
    q = act_siegel(m, p)
    assert np.max(np.abs(q.Y - cert.reduced)) <= 1e-12 * np.max(np.abs(y))
    assert not q.X.any()
    jp = act_jacobi(JacobiGroupElement(m, HeisenbergInt.identity(2, 1)),
                    JacobiPoint.from_z(p, [[0.3 + 0.1j, 0.2j]]))
    assert np.array_equal(jp.omega.Y, q.Y)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_rejected(bad):
    from siegeljacobi.group_core import PosDefMatrix
    with pytest.raises(ValueError, match="Y has a non-finite entry"):
        SiegelPoint(np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, bad]]))
    with pytest.raises(ValueError, match="X has a non-finite entry"):
        SiegelPoint(np.array([[bad, 0.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(ValueError, match="PosDefMatrix has a non-finite entry"):
        PosDefMatrix(np.array([[bad]]))
