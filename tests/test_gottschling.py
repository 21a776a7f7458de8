"""Gottschling's 19 determinant conditions decide g = 2 membership.

Gottschling (Math. Ann. 138 (1959) 103-124): F_2 is cut out by
Minkowski-reduced Y, |x_ij| <= 1/2 and |det(C Omega + D)| >= 1 for 19 pairs
(C, D).  CandidateSet.certifying finds them in a family by their det_table
rows; these tests check that it does, that a family lacking one falls back
to itself, and that the 19 give the same mask as the whole shipped family.
"""

import json
from importlib import resources

import numpy as np
import pytest

from siegeljacobi.group_core import SymplecticInt, symplectic_check
from siegeljacobi.jsonio import decode_symplectic
from siegeljacobi.minkowski import DEFAULT_EPS, membership_mask
from siegeljacobi.siegel import (CandidateSet, _det_sq_batch, _omega_monomials,
                                 builtin_candidates, heuristic_candidates,
                                 load_candidates, membership_mask_points,
                                 save_candidates)
from conftest import gottschling_surface_points, rand_unimodular

#: S of the 15 polynomials det(Omega + S)
GOTTSCHLING_S = [np.zeros((2, 2), dtype=int)] + [
    sign * np.array(s) for s in ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, 0], [0, 1]],
                                 [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[1, 1], [1, 0]],
                                 [[0, 1], [1, 1]])
    for sign in (1, -1)]


def gottschling_values(omega):
    """The 19 polynomials at one complex Omega, evaluated directly."""
    w11, w12, w22 = omega[0, 0], omega[0, 1], omega[1, 1]
    vals = [w11, w22, w11 + w22 - 2 * w12 + 1, w11 + w22 - 2 * w12 - 1]
    return np.array(vals + [np.linalg.det(omega + s) for s in GOTTSCHLING_S])


def det_values(cands, omegas):
    """det(C Omega + D) from the det_table rows, (ncand, npoints)."""
    fr, fi = _omega_monomials(omegas.real, omegas.imag)
    return cands.det_table @ fr + 1j * (cands.det_table @ fi)


def draw_proposal(rng, n, a=0.8):
    """Seeded (X, Y) samples drawn as volume_fg_mc's g = 2 chunks draw them:
    X uniform in the box, Y Minkowski reduced."""
    t1 = a * (1.0 - rng.random(n)) ** (-1.0 / 3.0)
    t2 = t1 * (1.0 - rng.random(n)) ** (-1.0 / 2.0)
    y12 = 0.5 * rng.random(n) * t1
    ys = np.stack([np.stack([t1, y12], -1), np.stack([y12, t2], -1)], -2)
    xd = rng.uniform(-0.5, 0.5, size=(n, 3))
    xs = np.stack([xd[:, [0, 2]], xd[:, [2, 1]]], -2)
    return xs, ys


def full_family_mask(cands, xs, ys, eps=DEFAULT_EPS):
    """Membership over every row of the family, without certifying."""
    ok = np.max(np.abs(xs), axis=(1, 2)) <= 0.5 + eps
    ok &= membership_mask(ys, eps=eps)
    return ok & (_det_sq_batch(cands, xs, ys).min(axis=0) >= 1.0 - eps)


def hnf_rows(mat):
    """Canonical row Hermite form (left GL_n(Z) action), as a hashable tuple."""
    m = [list(map(int, row)) for row in mat]
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            while m[i][c] != 0:
                q = m[r][c] // m[i][c]
                m[r] = [x - q * y for x, y in zip(m[r], m[i])]
                m[r], m[i] = m[i], m[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return tuple(tuple(row) for row in m)


def bottom_row(m: SymplecticInt) -> np.ndarray:
    return np.concatenate([m.C, m.D], axis=1).astype(int)


class TestCertifying:
    def test_builtin_g2_yields_the_19(self, rng):
        full = builtin_candidates(2)
        cert = full.certifying
        assert len(cert) == 19 and full.guarantee == cert.guarantee == "exact"
        # kept in set order, each the first element with its row
        idx = [full.elements.index(m) for m in cert.elements]
        assert idx == sorted(idx)
        omegas = np.stack([0.3 * rng.normal(size=(2, 2)) + 1j * np.eye(2)
                           for _ in range(4)])
        omegas = 0.5 * (omegas + np.swapaxes(omegas, 1, 2))
        got = det_values(cert, omegas)
        want = np.stack([gottschling_values(om) for om in omegas], axis=1)
        # each certifying row is +- one closed form, and each closed form is hit
        match = [[k for k in range(19) if np.allclose(got[i], want[k], atol=1e-12)
                  or np.allclose(got[i], -want[k], atol=1e-12)] for i in range(19)]
        assert sorted(k for ks in match for k in ks) == list(range(19))

    def test_missing_row_falls_back_to_self(self):
        full = builtin_candidates(2)
        w11 = [i for i, row in enumerate(full.det_table)
               if tuple(abs(row).astype(int)) == (0, 1, 0, 0, 0)]
        assert len(w11) == 1
        rest = CandidateSet(2, full.elements[:w11[0]] + full.elements[w11[0] + 1:])
        assert rest.certifying is rest
        assert rest.guarantee == "relative-to-family"

    def test_other_g_returns_self(self):
        g1, g3 = builtin_candidates(1), builtin_candidates(3)
        assert g1.certifying is g1 and g1.guarantee == "exact"
        assert g3.certifying is g3 and g3.guarantee == "relative-to-family"
        assert heuristic_candidates(2).guarantee == "relative-to-family"
        # g = 1 without the inversion: det(C w + D) = w + 1 alone proves nothing
        shear = SymplecticInt([[1]], [[0]], [[1]], [[1]])
        lone = CandidateSet(1, (shear,))
        assert lone.certifying is lone and lone.guarantee == "relative-to-family"

    def test_saved_superset_yields_the_same_19(self, tmp_path):
        full = builtin_candidates(2)
        extra = full.elements[0] * full.elements[1]
        assert extra.C.any()
        save_candidates(CandidateSet(2, full.elements + (extra,)), tmp_path / "c.json")
        loaded = load_candidates(tmp_path / "c.json")
        assert len(loaded) == len(full) + 1
        assert loaded.certifying.elements == full.certifying.elements
        assert loaded.guarantee == "exact"


class TestRedundancy:
    """The 19 rows give bit for bit the mask of all 49 rows."""

    def test_proposal_samples(self):
        full = builtin_candidates(2)
        xs, ys = draw_proposal(np.random.default_rng(20240817), 200_000)
        want = full_family_mask(full, xs, ys)
        got = membership_mask_points(xs, ys, full)
        assert np.array_equal(got, want)
        assert 0.4 < want.mean() < 0.8

    @pytest.mark.parametrize("offset", [-2.0, 0.0, 2.0])
    def test_points_on_each_surface(self, offset):
        # |det|^2 = 1 + offset * eps on each of the 19 surfaces, reached by
        # scaling Y (which keeps it Minkowski reduced) and bisecting the scale
        full = builtin_candidates(2)
        cert = full.certifying
        target = 1.0 + offset * DEFAULT_EPS
        rng = np.random.default_rng(7)
        accepted = 0
        for k in range(len(cert)):
            row = CandidateSet(2, cert.elements[k:k + 1])
            xs, ys = draw_proposal(rng, 4_000)

            def value(t):
                return _det_sq_batch(row, xs, ys * t[:, None, None])[0] - target

            lo, hi = np.full(len(xs), 1e-3), np.full(len(xs), 1e3)
            keep = (value(lo) < 0) & (value(hi) > 0)
            xs, ys, lo, hi = xs[keep], ys[keep], lo[keep], hi[keep]
            for _ in range(80):
                mid = np.sqrt(lo * hi)
                below = value(mid) < 0
                lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
            # the endpoint closer to the surface
            t = np.where(np.abs(value(hi)) <= np.abs(value(lo)), hi, lo)
            ys = ys * t[:, None, None]
            assert xs.shape[0] > 100
            assert np.max(np.abs(value(np.ones(len(xs))))) < 1e-3 * DEFAULT_EPS
            want = full_family_mask(full, xs, ys)
            assert np.array_equal(membership_mask_points(xs, ys, full), want)
            if offset < 0:
                assert not want.any()
            accepted += int(want.sum())
        if offset >= 0:
            assert accepted > 0



class TestEssential:
    """None of the 19 is redundant: each surface |det_k| = 1 meets the box
    and the Minkowski region at a point where the other 18 hold strictly, so
    just below it the other 18 accept a point that is not in F_2."""

    def test_each_row_has_a_witness(self):
        full = builtin_candidates(2)
        cert = full.certifying
        witnesses = gottschling_surface_points()
        assert len(witnesses) == len(cert) == 19
        for k, (slack, x, below, above) in enumerate(witnesses):
            assert slack > 1e-3, k
            row = CandidateSet(2, cert.elements[k:k + 1])
            rest = CandidateSet(2, cert.elements[:k] + cert.elements[k + 1:])
            assert rest.certifying is rest
            xs, ys = np.stack([x, x]), np.stack([below, above])
            vals = _det_sq_batch(row, xs, ys)[0]
            assert 1.0 - 1e-12 < vals[0] < 1.0 - 1e-13, k
            assert 1.0 + 1e-13 < vals[1] < 1.0 + 1e-12, k
            assert membership_mask(ys, eps=-0.5 * slack).all()
            assert np.max(np.abs(x)) < 0.5 - 0.5 * slack
            assert membership_mask_points(xs, ys, full, 0.0).tolist() == [False, True], k
            assert membership_mask_points(xs, ys, rest, 0.0).tolist() == [True, True], k
            # the point above is a member on the boundary, strictly inside
            # every condition but row k
            assert membership_mask_points(xs, ys, full).tolist() == [True, True], k
            assert not membership_mask_points(xs, ys, full, -DEFAULT_EPS).any(), k

class TestShippedFamily:
    """The package-data family: what its generator script used to promise."""

    @pytest.fixture(scope="class")
    def shipped(self):
        with resources.files("siegeljacobi.data").joinpath("candidates_g2.json").open() as fh:
            obj = json.load(fh)
        assert obj["g"] == 2
        return [decode_symplectic(e) for e in obj["elements"]]

    def test_size_symplectic_and_c_nonzero(self, shipped):
        assert len(shipped) == 49
        for m in shipped:
            assert symplectic_check(m.matrix) and m.C.any()

    def test_bottom_rows_have_unit_entries(self, shipped):
        for m in shipped:
            assert set(bottom_row(m).ravel()) <= {-1, 0, 1}

    def test_bottom_row_classes_are_distinct(self, shipped):
        classes = {hnf_rows(bottom_row(m)) for m in shipped}
        assert len(classes) == len(shipped)

    def test_hnf_is_a_class_invariant(self, shipped, rng):
        for m in shipped:
            cd = bottom_row(m)
            for _ in range(3):
                u = rand_unimodular(2, rng)
                assert hnf_rows(u @ cd) == hnf_rows(cd)
        assert hnf_rows([[1, 0], [0, 2]]) != hnf_rows([[1, 0], [0, 1]])

    def test_certifying_finds_the_19(self, shipped):
        cands = CandidateSet(2, tuple(shipped))
        assert len(cands) == 49
        assert len(cands.certifying) == 19 and cands.guarantee == "exact"
