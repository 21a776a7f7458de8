import numpy as np
import pytest

from siegeljacobi import group_core, minkowski, siegel
from siegeljacobi.group_core import PosDefMatrix, SiegelPoint
from siegeljacobi.intmat import ieye, int_det, as_imat, to_float
from siegeljacobi.minkowski import (DEFAULT_EPS, ReductionError, UnimodularInt,
                                    _candidate_arrays, _column_forms, _column_tables,
                                    _features, _form_features, _lll_transform,
                                    is_minkowski_reduced, membership_mask,
                                    minkowski_reduce)
from conftest import (DEFINITENESS_LOSS_Y, HARD_YS, SKEWED_YS, ill_conditioned_ys,
                      onto_minkowski_faces, rand_pd, rand_siegel_point, rand_unimodular)


def brute_force_reduce_2x2(y, span=3):
    """Independent oracle: scan all unimodular 2x2 transforms with small entries."""
    y = np.asarray(y, dtype=float)
    best = None
    rng = range(-span, span + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if a * d - b * c not in (1, -1):
                        continue
                    u = np.array([[a, b], [c, d]], dtype=float)
                    cand = u.T @ y @ u
                    if not is_minkowski_reduced(cand):
                        continue
                    key = (cand[0, 0], cand[1, 1], -cand[0, 1])
                    if best is None or key < best[0]:
                        best = (key, cand)
    return best[1]


class TestPrimitiveCandidates:
    def test_g1_bound1(self):
        vecs, tails = _candidate_arrays(1, 1)
        assert sorted(v[0] for v in vecs.tolist()) == [-1, 1]
        assert tails.all()

    def test_g2_bound1_count(self):
        vecs, _ = _candidate_arrays(2, 1)
        assert len(vecs) == 8

    def test_g2_bound2_count(self):
        vecs, _ = _candidate_arrays(2, 2)
        assert len(vecs) == (2 * 2 + 1) ** 2 - 1 == 24

    def test_tail_gcd_flags(self):
        from math import gcd
        vecs, tails = _candidate_arrays(2, 2)
        for v, t in zip(vecs, tails):
            assert t[1] == (abs(int(v[1])) == 1)
            assert t[0] == (gcd(int(v[0]), int(v[1])) == 1)
        vecs, tails = _candidate_arrays(3, 3)
        for v, t in zip(vecs.astype(int).tolist(), tails):
            assert t.tolist() == [gcd(*v[k:]) == 1 for k in range(3)]


class TestMembership:
    def test_identity_reduced(self):
        for g in (1, 2, 3):
            assert is_minkowski_reduced(np.eye(g))

    def test_example_not_reduced(self):
        # a = (1, -1) gives a Y ta = 0.8 < y_22 = 1
        assert not is_minkowski_reduced([[1, 0.6], [0.6, 1]])

    def test_example_reduced(self):
        assert is_minkowski_reduced([[1, 0.4], [0.4, 2]])

    def test_vectorized_matches_scalar(self, rng):
        ys = np.stack([rand_pd(2, rng) for _ in range(200)])
        mask = membership_mask(ys)
        for y, m in zip(ys, mask):
            assert m == is_minkowski_reduced(y)

    @staticmethod
    def box3_mask(ys, eps=DEFAULT_EPS):
        """Reference: every (M.1) form a Y t(a) over the box max|a_i| <= 3,
        one einsum per Y, and (M.2), each with slack eps."""
        g = ys.shape[-1]
        vecs, tails = _candidate_arrays(g, 3)
        want = []
        for y in ys:
            quad = np.einsum("nv,vw,nw->n", vecs, y, vecs)
            want.append(all(quad[tails[:, k]].min() >= y[k, k] - eps for k in range(g))
                        and all(y[k, k + 1] >= -eps for k in range(g - 1)))
        return want

    def test_mask_matches_direct_forms(self, rng):
        # reduced matrices with some diagonal entries cut by 10% mix members
        # and non-members
        for g in (1, 2, 3, 4):
            ys = np.stack([minkowski_reduce(rand_pd(g, rng)).reduced
                           * rng.choice([1.0, 0.9], size=(g, g)) ** np.eye(g)
                           for _ in range(150)])
            want = self.box3_mask(ys)
            assert membership_mask(ys).tolist() == want
            assert 0 < sum(want) < len(want) or g == 1

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_mask_matches_box3_on_faces(self, g, rng):
        # every {0, +-1} (M.1) face and every (M.2) face, where the two
        # families could part if box 1 were not exact
        ys = np.stack([minkowski_reduce(rand_pd(g, rng)).reduced for _ in range(40)])
        ys = onto_minkowski_faces(ys, ys)[1]
        assert len(ys) == 40 * (sum(len(v) for v, _ in _column_tables(g)) + g - 1)
        for eps in (DEFAULT_EPS, -DEFAULT_EPS):
            want = self.box3_mask(ys, eps)
            assert membership_mask(ys, eps=eps).tolist() == want
            assert 0 < sum(want) < len(want) or eps < 0


class TestSingleMatrixVerdict:
    """is_minkowski_reduced sums each (M.1) form term by term on Python
    floats and leaves to the mask a matrix where a form could overflow; its
    verdict is membership_mask's on the matrix alone, bit for bit."""

    @staticmethod
    def matrices(g, rng, n=120):
        """Reduced matrices rounded to a 1/8 grid, so that some lie on a face,
        and symmetric 1/8-grid matrices, most not positive definite; the same
        with y_12 one ulp off, so not symmetric; and all of them scaled by
        10^U(-150, 150) and by 10^U(306, 308.5), where forms overflow to
        +-inf or NaN and entries can be infinite; last, 1e308 (1, +-1; +-1, 1)
        in the leading block, whose forms are +inf, -inf and NaN."""
        near = np.stack([minkowski_reduce(rand_pd(g, rng)).reduced for _ in range(n)])
        near = np.round(12 * near / near[:, :1, :1]) / 8  # y_11 = 1.5
        wild = rng.integers(-10, 11, size=(n, g, g)) / 8
        wild = np.triu(wild) + np.triu(wild, 1).transpose(0, 2, 1)
        wild[:, range(g), range(g)] = rng.integers(4, 13, size=(n, g)) / 8
        ys = np.concatenate((near, wild))
        skew = ys.copy()
        skew[:, 0, 1] = np.nextafter(skew[:, 0, 1], rng.choice([-np.inf, np.inf], 2 * n))
        ys = np.concatenate((ys, skew))
        edges = np.stack((np.eye(g), np.eye(g))) * 1e308
        edges[:, 0, 1] = edges[:, 1, 0] = (1e308, -1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.concatenate([ys] + [ys * 10.0 ** rng.uniform(lo, hi, (4 * n, 1, 1))
                                          for lo, hi in ((-150, 150), (306, 308.5))]
                                  + [edges])

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_verdict_is_the_masks(self, g, rng):
        ys = self.matrices(g, rng)
        verdicts = {}
        with np.errstate(all="ignore"):  # the mask's overflowing forms
            for eps in (DEFAULT_EPS, 0.0, -DEFAULT_EPS):
                want = [bool(membership_mask(y[None], eps=eps)[0]) for y in ys]
                # unchecked input: the verdict of whatever reaches it
                assert [is_minkowski_reduced(PosDefMatrix._of(y), eps=eps) for y in ys] == want
                verdicts[eps] = want[:len(ys) // 3]
            forms = np.concatenate([mono @ _form_features(ys) for _, mono in _column_tables(g)])
        assert 0 < sum(verdicts[DEFAULT_EPS]) < len(verdicts[DEFAULT_EPS])
        # grid matrices on a face are members at eps = 0, not at -eps
        assert verdicts[0.0] != verdicts[-DEFAULT_EPS]
        assert np.isposinf(forms).any() and np.isneginf(forms).any() and np.isnan(forms).any()
        assert 0 < sum(_features(y.tolist()) is None for y in ys) < len(ys)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_reducer_forms_are_the_masks(self, g, rng):
        # minkowski_reduce picks each column's vector from these forms
        tables = _column_tables(g)
        with np.errstate(all="ignore"):
            for y in self.matrices(g, rng, n=40):
                feats = _form_features(np.stack((y, y)))
                for k, (_, mono) in enumerate(tables):
                    want = (mono @ feats)[:, 0]
                    if np.isnan(want).any():
                        want[:] = np.nan
                    got = np.array(_column_forms(tables, k, y.tolist()))
                    assert np.array_equal(got, want, equal_nan=True)


class TestReduce:
    def test_already_reduced_short_circuit(self):
        y = np.array([[1.0, 0.3], [0.3, 2.0]])
        cert = minkowski_reduce(y)
        assert cert.iterations == 0
        assert np.array_equal(cert.transform.entries, as_imat(np.eye(2, dtype=int)))
        assert np.allclose(cert.reduced, y)

    def test_g1_trivial(self):
        cert = minkowski_reduce(np.array([[7.3]]))
        assert np.allclose(cert.reduced, [[7.3]])
        assert int(cert.transform.entries[0, 0]) in (1, -1)

    def test_frozen_example_and_oracle(self):
        # oracle-first: the brute-force scan fixes the expected reduction
        y = np.array([[1.0, 0.6], [0.6, 1.0]])
        expected = np.array([[0.8, 0.4], [0.4, 1.0]])
        oracle = brute_force_reduce_2x2(y)
        assert np.allclose(oracle, expected, atol=1e-12)
        cert = minkowski_reduce(y)
        assert abs(cert.reduced[0, 0] - 0.8) < 1e-12
        assert np.allclose(cert.reduced, expected, atol=1e-9)

    def test_certificate_consistency(self, rng):
        for _ in range(100):
            g = int(rng.integers(1, 4))
            y = rand_pd(g, rng)
            cert = minkowski_reduce(y)
            u = to_float(cert.transform.entries)
            assert np.max(np.abs(u.T @ y @ u - cert.reduced)) < 1e-9 * max(
                1.0, np.max(np.abs(cert.reduced)))
            assert int_det(cert.transform.entries) in (1, -1)

    def test_r4_and_m2_on_outputs(self, rng):
        for _ in range(150):
            g = int(rng.integers(1, 4))
            r = minkowski_reduce(rand_pd(g, rng)).reduced
            for i in range(g):
                for j in range(i + 1, g):
                    assert r[i, i] <= r[j, j] + 1e-9
                    assert abs(r[i, j]) <= 0.5 * r[i, i] + 1e-9
            for k in range(g - 1):
                assert r[k, k + 1] >= -1e-9

    def test_det_preserved(self, rng):
        for _ in range(100):
            g = int(rng.integers(1, 4))
            y = rand_pd(g, rng)
            r = minkowski_reduce(y).reduced
            dy = np.linalg.det(y)
            assert abs(np.linalg.det(r) - dy) <= 1e-9 * max(1.0, abs(dy))

    def test_idempotence(self, rng):
        for _ in range(100):
            g = int(rng.integers(1, 4))
            r = minkowski_reduce(rand_pd(g, rng)).reduced
            again = minkowski_reduce(r)
            assert again.iterations == 0
            assert np.allclose(again.reduced, r, atol=1e-9)

    def test_gl_orbit_stability_on_interior(self, rng):
        from siegeljacobi.minkowski import _candidate_arrays
        checked = 0
        for _ in range(200):
            g = int(rng.integers(2, 4))
            y = rand_pd(g, rng)
            r = minkowski_reduce(y).reduced
            vecs, tails = _candidate_arrays(g, 3)
            quad = np.einsum("nv,vw,nw->n", vecs, r, vecs)
            strict = all(r[k, k + 1] > 1e-6 for k in range(g - 1))
            for k in range(g):
                unit = np.zeros(g)
                unit[k] = 1.0
                mask = tails[:, k] & ~np.all(np.abs(vecs) == unit, axis=1)
                if quad[mask].min() < r[k, k] + 1e-6:
                    strict = False
            if not strict:
                continue
            checked += 1
            u = rand_unimodular(g, rng)
            r2 = minkowski_reduce(u.T @ y @ u).reduced
            assert np.allclose(r, r2, atol=1e-8)
        assert checked > 20

    def test_lost_definiteness_is_named(self):
        # a valid certificate, or a ReductionError naming the cause; a bare
        # LinAlgError "Matrix is not positive definite" used to escape from LLL
        y = DEFINITENESS_LOSS_Y
        try:
            cert = minkowski_reduce(y)
        except ReductionError as exc:
            assert "lost definiteness" in str(exc)
            return
        u = to_float(cert.transform.entries)
        assert int_det(cert.transform.entries) in (1, -1)
        assert is_minkowski_reduced(cert.reduced)
        assert np.max(np.abs(u.T @ y @ u - cert.reduced)) <= 1e-9 * np.max(np.abs(y))

    @pytest.mark.parametrize("y", SKEWED_YS)
    def test_skewed_input(self, y):
        # the same transform as for the scaled-down Y, whose product rounds less
        cert = minkowski_reduce(y)
        assert np.array_equal(cert.transform.entries,
                              minkowski_reduce(y / 1000).transform.entries)
        assert np.array_equal(cert.reduced, cert.reduced.T)
        assert is_minkowski_reduced(cert.reduced)
        u = to_float(cert.transform.entries)
        assert np.allclose(u.T @ y @ u, cert.reduced, rtol=0, atol=1e-5)

    def test_unimodular_type_validates(self):
        with pytest.raises(ValueError):
            UnimodularInt(np.array([[2, 0], [0, 1]]))



def lll_refactoring_oracle(y):
    """LLL (delta = 0.99) that re-forms the float Gram matrix t(U) Y U and
    re-factors it after every size reduction and swap, reading mu and the
    Gram-Schmidt norms off each fresh Cholesky factor."""
    g = y.shape[0]
    u = ieye(g)

    def chol():
        try:
            return np.linalg.cholesky(to_float(u.T) @ y @ to_float(u))
        except np.linalg.LinAlgError:
            raise ReductionError("minkowski_reduce lost definiteness in LLL") from None

    k = 1
    steps = 0
    while k < g and steps < 10000:
        steps += 1
        ell = chol()
        for j in range(k - 1, -1, -1):
            q = int(round(ell[k, j] / ell[j, j]))
            if q != 0:
                u[:, k] = u[:, k] - q * u[:, j]
                ell = chol()
        mu = ell[k, k - 1] / ell[k - 1, k - 1]
        if ell[k, k] ** 2 >= (0.99 - mu * mu) * ell[k - 1, k - 1] ** 2:
            k += 1
        else:
            u[:, [k - 1, k]] = u[:, [k, k - 1]]
            k = max(k - 1, 1)
    return u


def assert_valid_certificate(y, cert):
    """Exactly unimodular, reduced, and t(U) Y U within the a-priori bound
    4 g u |t(U)| |Y| |U| of a float product (u the unit roundoff)."""
    u = to_float(cert.transform.entries)
    assert int_det(cert.transform.entries) in (1, -1)
    assert is_minkowski_reduced(cert.reduced)
    bound = 4 * len(y) * np.finfo(float).eps * (np.abs(u).T @ np.abs(y) @ np.abs(u))
    assert np.all(np.abs(u.T @ y @ u - cert.reduced) <= bound)


class TestIncrementalLLL:
    """_lll_transform factors Y once and updates mu and the Gram-Schmidt
    norms in place; lll_refactoring_oracle re-factors after every move."""

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_matches_oracle_on_random_forms(self, g):
        rng = np.random.default_rng(100 + g)
        moved = 0
        for _ in range(100):
            y, w = rand_pd(g, rng), rand_unimodular(g, rng)
            for form in (y, w.T @ y @ w):
                u = _lll_transform(form)
                assert np.array_equal(u, lll_refactoring_oracle(form))
                moved += not np.array_equal(u, ieye(g))
        assert moved > 100

    @pytest.mark.parametrize("y", SKEWED_YS)
    def test_matches_oracle_on_skewed_input(self, y):
        assert np.array_equal(_lll_transform(y), lll_refactoring_oracle(y))

    def test_ill_conditioned_set(self):
        # every Y reduces; where the oracle reduces, to the same LLL
        # transform, and many lose definiteness in its re-formed Gram matrix
        ys = ill_conditioned_ys()
        refused = 0
        for y in ys:
            assert_valid_certificate(y, minkowski_reduce(y))
            try:
                want = lll_refactoring_oracle(y)
            except ReductionError:
                refused += 1
                continue
            assert np.array_equal(_lll_transform(y), want)
        assert 50 < refused < len(ys) // 2

    def test_definiteness_loss_y_reduces(self):
        with pytest.raises(ReductionError, match="lost definiteness"):
            lll_refactoring_oracle(DEFINITENESS_LOSS_Y)
        cert = minkowski_reduce(DEFINITENESS_LOSS_Y)
        assert cert.iterations > 0
        assert_valid_certificate(DEFINITENESS_LOSS_Y, cert)

    @pytest.mark.parametrize("scale", [2.0 ** -1000, 2.0 ** 900])
    def test_power_of_two_scale_gives_the_same_transform(self, scale):
        # every update is a ratio of norms, so none under- or overflows
        # where the Cholesky factor of Y itself does not
        rng = np.random.default_rng(7)
        for g in (2, 3, 4):
            for _ in range(30):
                w = rand_unimodular(g, rng, steps=8, span=3)
                y = w.T @ rand_pd(g, rng) @ w
                assert np.array_equal(_lll_transform(y * scale), _lll_transform(y))


@pytest.fixture
def cholesky_calls(monkeypatch):
    """The matrices np.linalg.cholesky is called on, in call order."""
    seen = []

    def counted(m, *args, f=np.linalg.cholesky, **kw):
        seen.append(m)
        return f(m, *args, **kw)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return seen


class TestHardInputs:
    """Past cond 1/u a few accepted Y do not reduce.  Each failure is a
    named ReductionError, also when the reducer's own result loses
    definiteness (it used to be the input validator's ValueError, which
    blames the input), and a highest-point step re-raises it as a
    SiegelReductionError, to which siegel_reduce attaches the det-Im trace."""

    def test_named_failures(self):
        ys = ill_conditioned_ys(max_cond=1e18)
        for i, cause in HARD_YS.items():
            with pytest.raises(ReductionError, match=cause):
                minkowski_reduce(ys[i])
            p = SiegelPoint(np.zeros_like(ys[i]), ys[i])
            with pytest.raises(siegel.SiegelReductionError,
                               match="step failed: minkowski_reduce .*" + cause) as err:
                siegel.siegel_reduce(p)
            assert err.value.best is p and err.value.trace == [float(np.linalg.det(p.Y))]


class TestOneFactorisation:
    """LLL factors Y once, the reducer validates the matrix each pass
    returns, and a highest-point step factors nothing else but what
    act_siegel builds for a candidate step."""

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_reducer(self, g, cholesky_calls):
        rng = np.random.default_rng(30 + g)
        fired = 0
        for _ in range(40):
            w = rand_unimodular(g, rng)
            y = PosDefMatrix(w.T @ rand_pd(g, rng) @ w)
            cholesky_calls.clear()
            _lll_transform(y.entries)
            assert len(cholesky_calls) == 1
            cholesky_calls.clear()
            cert = minkowski_reduce(y)
            fired += cert.iterations > 0
            assert len(cholesky_calls) == (1 + cert.iterations if cert.iterations else 0)
        assert fired > 20

    def test_highest_point_step(self, cholesky_calls, monkeypatch):
        counts = []

        def reducer(y, **kw):
            before = len(cholesky_calls)
            cert = minkowski_reduce(y, **kw)
            counts.append(len(cholesky_calls) - before)
            return cert

        def action(m, p, act=siegel.act_siegel):
            counts.append(1)  # act_siegel's check of its result
            return act(m, p)

        monkeypatch.setattr(siegel, "minkowski_reduce", reducer)
        monkeypatch.setattr(siegel, "act_siegel", action)
        rng = np.random.default_rng(4)
        steps = 0
        for g in (1, 2, 3):
            for _ in range(15):
                cur, step = siegel.highest_point_step(rand_siegel_point(g, rng))
                while not step.is_identity():
                    counts.clear()
                    cholesky_calls.clear()
                    cur, step = siegel.highest_point_step(cur)
                    assert len(cholesky_calls) == sum(counts)
                    steps += 1
        assert steps > 20


class TestSharedIdentity:
    def test_one_read_only_identity_per_g(self, rng):
        for g in (1, 2, 3):
            y = minkowski_reduce(rand_pd(g, rng)).reduced
            first, again = minkowski_reduce(y), minkowski_reduce(y.copy())
            assert first.iterations == 0 and first.transform is again.transform
            assert np.array_equal(first.transform.entries, ieye(g))
            with pytest.raises(ValueError):
                first.transform.entries[0, 0] = 2

    def test_g1_skips_the_mask(self, monkeypatch):
        calls = []
        monkeypatch.setattr(minkowski, "membership_mask",
                            lambda *a, _f=minkowski.membership_mask, **k:
                            calls.append(1) or _f(*a, **k))
        for y in (1e-300, 0.5, 7.3, 1e300):
            cert = minkowski_reduce(np.array([[y]]))
            assert cert.iterations == 0 and cert.reduced[0, 0] == y
        assert calls == []


@pytest.fixture
def pd_checks(monkeypatch):
    """The matrices group_core._check_pd is called on, in call order."""
    seen = []

    def counted(m, what, f=group_core._check_pd):
        seen.append(np.array(m, dtype=float))
        return f(m, what)

    monkeypatch.setattr(group_core, "_check_pd", counted)
    return seen


class TestValidateOnce:
    """A SiegelPoint's Y is checked when the point is built; the reduction
    step hands it to the public reducer unchecked, and the reducer checks
    only the matrix it computes and returns, by its own Cholesky rather
    than the input validator."""

    def test_step_hands_y_over_unchecked(self, rng, pd_checks, cholesky_calls,
                                         monkeypatch):
        calls = []

        def spy(y, **kw):
            checks_before = len(cholesky_calls)
            cert = minkowski_reduce(y, **kw)
            calls.append((y, cert, cholesky_calls[checks_before:]))
            return cert

        monkeypatch.setattr(siegel, "minkowski_reduce", spy)
        points = [rand_siegel_point(g, rng) for g in (1, 2, 3) for _ in range(15)]
        pd_checks.clear()
        for p in points:
            siegel.highest_point_step(p)
        assert len(calls) == len(points)
        moved = 0
        for (y, cert, checks), p in zip(calls, points):
            assert isinstance(y, PosDefMatrix) and y.entries is p.Y
            # LLL's one factorisation, then one check per reducer pass, on
            # the matrix that pass tests; the last is the one returned
            assert len(checks) == (1 + cert.iterations if cert.iterations else 0)
            if cert.iterations:
                moved += 1
                assert np.array_equal(checks[-1], cert.reduced)
            else:
                assert np.array_equal(cert.reduced, p.Y) and cert.reduced is not p.Y
        assert 0 < moved < len(points)
        assert pd_checks == []

    def test_raw_arrays_keep_the_full_check(self, pd_checks):
        y = np.array([[4.0, 2.4], [2.4, 4.0]])  # 2 y12 > y11: not reduced
        cert = minkowski_reduce(y)
        assert cert.iterations > 0 and len(pd_checks) == 1
        assert np.array_equal(pd_checks[0], y)
        pd_checks.clear()
        assert is_minkowski_reduced(cert.reduced) and len(pd_checks) == 1
        # a point's Y through the private builder is the same input, unchecked
        pd_checks.clear()
        trusted = minkowski_reduce(PosDefMatrix._of(SiegelPoint(np.zeros((2, 2)), y).Y))
        assert pd_checks == [] and trusted.iterations > 0
        assert np.array_equal(trusted.reduced, cert.reduced)
        assert np.array_equal(trusted.transform.entries, cert.transform.entries)

    @pytest.mark.parametrize("y, msg", [
        ([[1.0, 0.5], [0.4, 1.0]], "PosDefMatrix not symmetric"),
        ([[1.0, 2.0], [2.0, 1.0]], "PosDefMatrix is not positive definite"),
        ([[-1.0]], "PosDefMatrix is not positive definite"),
        ([[1.0, np.nan], [np.nan, 1.0]], "PosDefMatrix has a non-finite entry"),
        ([[np.inf]], "PosDefMatrix has a non-finite entry"),
    ])
    def test_raw_input_refused_by_name(self, y, msg):
        for f in (minkowski_reduce, is_minkowski_reduced):
            with pytest.raises(ValueError, match="^" + msg):
                f(np.array(y))
