import numpy as np
import pytest

from siegeljacobi.intmat import int_det, as_imat, to_float
from siegeljacobi.minkowski import (DEFAULT_EPS, ReductionError, UnimodularInt,
                                    _candidate_arrays, _column_tables,
                                    is_minkowski_reduced, membership_mask,
                                    minkowski_reduce)
from conftest import (DEFINITENESS_LOSS_Y, SKEWED_YS, onto_minkowski_faces, rand_pd,
                      rand_unimodular)


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

