import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegeljacobi import geometry, siegel
from siegeljacobi.cli import main
from siegeljacobi.geometry import volume_fg_mc
from siegeljacobi.group_core import SiegelPoint, SymplecticInt, act_siegel
from siegeljacobi.intmat import as_imat
from siegeljacobi.jsonio import encode_siegel_point
from siegeljacobi.minkowski import DEFAULT_EPS, is_minkowski_reduced
from siegeljacobi.siegel import (CandidateSet, _det_coefficients, _det_sq_batch,
                                 builtin_candidates, det_sq,
                                 heuristic_candidates, highest_point_step,
                                 load_candidates, membership_mask_points,
                                 SiegelReductionError, siegel_membership, siegel_reduce)
from conftest import (SKEWED_YS, STALL_OMEGA, STEP_DEFINITENESS_LOSS,
                      boundary_equivalent, is_plus_minus_identity, rand_interior_siegel,
                      rand_siegel_point, siegel_flags_oracle, sl2z_reduce_oracle,
                      write_candidates)
from test_pinned_certificates import SEED as PINNED_SEED


class TestCandidateSets:
    def test_builtin_g1(self):
        c = builtin_candidates(1)
        assert len(c) == 1
        assert c.elements[0] == SymplecticInt.inversion(1)

    def test_builtin_g2_loads_and_is_symplectic(self):
        c = builtin_candidates(2)
        assert len(c) >= 19
        from siegeljacobi.group_core import symplectic_check
        for m in c.elements:
            assert symplectic_check(m.matrix)

    def test_heuristic_g3(self):
        c = heuristic_candidates(3)
        assert len(c) == 7  # embedded inversions over nonempty subsets
        from siegeljacobi.group_core import symplectic_check
        for m in c.elements:
            assert symplectic_check(m.matrix)

    def test_json_round_trip(self, tmp_path):
        c = builtin_candidates(2)
        path = tmp_path / "cands.json"
        write_candidates(c, path)
        c2 = load_candidates(path)
        assert c2.g == 2 and len(c2) == len(c)
        assert all(a == b for a, b in zip(c.elements, c2.elements))

    def test_c_zero_candidates_dropped(self):
        ident = SymplecticInt.identity(2)
        c = CandidateSet(2, (ident, SymplecticInt.inversion(2)))
        assert len(c) == 1


class TestMembership:
    def test_g1_high_point(self):
        assert siegel_membership(SiegelPoint.from_omega([[2j]]))[0]

    def test_g1_low_point(self):
        assert not siegel_membership(SiegelPoint.from_omega([[0.3 + 0.05j]]))[0]

    def test_i_identity_matrix(self):
        for g in (1, 2, 3):
            assert siegel_membership(SiegelPoint.from_omega(1j * np.eye(g)))[0]

    def test_s3_violation(self):
        assert not siegel_membership(SiegelPoint.from_omega([[0.7 + 5j]]))[0]

    def test_boundary_flag(self):
        member, boundary = siegel_membership(SiegelPoint.from_omega([[0.5 + 5j]]))
        assert member and boundary
        member, boundary = siegel_membership(SiegelPoint.from_omega([[0.1 + 5j]]))
        assert member and not boundary

    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_is_never_a_member(self, g, bad, rng):
        # at g = 1 an infinite Y used to pass: the Minkowski table is empty
        # there and |w|^2 = inf passes the determinant row.  SiegelPoint
        # refuses such a point, so siegel_membership gets a bare (X, Y) pair
        cands = builtin_candidates(g)
        p = siegel_reduce(rand_siegel_point(g, rng)).reduced
        xs, ys = [p.X], [p.Y]
        for target in (0, 1):
            for i in range(g):
                for j in range(i, g):
                    m = [p.X.copy(), p.Y.copy()]
                    m[target][i, j] = m[target][j, i] = bad
                    xs.append(m[0])
                    ys.append(m[1])
        with np.errstate(invalid="ignore", over="ignore"):
            for eps in (DEFAULT_EPS, -DEFAULT_EPS):
                mask = membership_mask_points(np.stack(xs), np.stack(ys), cands, eps)
                assert mask[0] or eps < 0
                assert not mask[1:].any()
            for x, y in zip(xs[1:], ys[1:]):
                with pytest.raises(ValueError):
                    SiegelPoint(x, y)
                pair = SimpleNamespace(g=g, X=x, Y=y)
                assert siegel_membership(pair, cands) == (False, False)

    def test_omega_i_infinity_and_lower_half_plane_at_g1(self):
        cands = builtin_candidates(1)
        for y in (np.inf, -np.inf, -2.0):
            assert not membership_mask_points(np.zeros((1, 1, 1)), np.full((1, 1, 1), y),
                                              cands)[0]

    def test_vectorized_matches_scalar(self, rng, monkeypatch):
        # random g = 2 points, then the proposal samples of volume_fg_mc at
        # g = 1 and 2, taken from the calls its chunks make
        pts = [rand_siegel_point(2, rng, x_scale=0.4, floor=0.8) for _ in range(150)]
        batches = [(np.stack([p.X for p in pts]), np.stack([p.Y for p in pts]),
                    builtin_candidates(2))]

        def spy(xs, ys, cands, *args):
            batches.append((xs, ys, cands))
            return membership_mask_points(xs, ys, cands, *args)

        monkeypatch.setattr(geometry, "membership_mask_points", spy)
        for g in (1, 2):
            volume_fg_mc(g, 1000, seed=123)
        assert [xs.shape[1:] for xs, _, _ in batches[1:]] == [(1, 1), (2, 2)]
        for xs, ys, cands in batches:
            mask = membership_mask_points(xs, ys, cands)
            assert mask.any() and not mask.all()
            for x, y, m in zip(xs, ys, mask):
                assert bool(m) == siegel_membership(SiegelPoint(x, y), cands)[0]


class TestReduce:
    def test_interior_point_is_fixed(self, rng):
        for g in (1, 2):
            p = rand_interior_siegel(g, rng)
            cert = siegel_reduce(p)
            assert cert.iterations <= 1
            assert is_plus_minus_identity(cert.gamma)
            assert np.allclose(cert.reduced.omega, p.omega, atol=1e-12)

    def test_large_skewed_im_omega(self):
        # the GL step on this Y used to exit the solve with "action result
        # lost symmetry (drift 8.33e-07)"; C = 0 steps are exact congruences
        p = SiegelPoint(np.zeros((2, 2)), SKEWED_YS[1])
        cert = siegel_reduce(p)
        assert siegel_membership(cert.reduced)[0]
        back = act_siegel(cert.gamma.inverse(), cert.reduced).omega
        assert np.max(np.abs(back - p.omega)) <= 1e-10 * np.max(np.abs(p.omega))

    def test_translation_only(self, rng):
        for g in (1, 2):
            p = rand_interior_siegel(g, rng)
            s = rng.integers(-4, 5, (g, g))
            s = s + s.T
            moved = SiegelPoint(p.X + s, p.Y)
            cert = siegel_reduce(moved)
            assert np.allclose(cert.reduced.omega, p.omega, atol=1e-10)
            # gamma is the inverse translation, up to sign
            m = cert.gamma
            assert np.array_equal(np.abs(np.asarray(m.B, dtype=int)), np.abs(s))

    def test_member_threshold_point_takes_a_step(self):
        # the step and membership share the threshold 1 - eps; the step used
        # to test 1/(1 + eps) and stall here with SiegelReductionError
        p = SiegelPoint.from_omega([[STALL_OMEGA]])
        assert siegel_membership(p) == (False, False)
        cert = siegel_reduce(p)
        assert cert.iterations == 1
        assert siegel_membership(cert.reduced)[0]
        assert abs(cert.reduced.omega[0, 0] - 1.0000000005j) < 1e-15
        assert np.allclose(act_siegel(cert.gamma, p).omega, cert.reduced.omega)

    def test_skewed_im(self):
        # Im Omega with entries in the thousands used to stop the Minkowski
        # step with "PosDefMatrix not symmetric"
        p = SiegelPoint.from_omega(1j * SKEWED_YS[0])
        cert = siegel_reduce(p)
        assert siegel_membership(cert.reduced)[0]
        assert np.allclose(act_siegel(cert.gamma, p).omega, cert.reduced.omega, atol=1e-6)

    def test_classical_oracle_equivalence(self, rng):
        for _ in range(500):
            tau = complex(rng.normal(0, 2), np.exp(rng.normal(0, 1.5)))
            got = siegel_reduce(SiegelPoint.from_omega([[tau]])).reduced.omega[0, 0]
            want = sl2z_reduce_oracle(tau)
            assert boundary_equivalent(got, want)

    def test_orbit_consistency(self, rng):
        for _ in range(100):
            g = int(rng.integers(1, 3))
            p = rand_siegel_point(g, rng)
            cert = siegel_reduce(p)
            q = act_siegel(cert.gamma, p)
            scale = max(1.0, np.max(np.abs(cert.reduced.omega)))
            assert np.max(np.abs(q.omega - cert.reduced.omega)) / scale < 1e-8

    def test_monotone_ascent(self, rng):
        for _ in range(30):
            g = int(rng.integers(1, 3))
            p = rand_siegel_point(g, rng)
            det_prev = np.linalg.det(p.Y)
            cur = p
            for _ in range(200):
                nxt, step = highest_point_step(cur)
                if step.is_identity():
                    break
                det_next = np.linalg.det(nxt.Y)
                assert det_next >= det_prev * (1 - 1e-9)
                det_prev, cur = det_next, nxt
            assert siegel_membership(cur)[0]

    def test_f1_sampling_both_g(self, rng):
        # covering property: reduction of 1000 random points always lands
        # inside the domain
        for _ in range(1000):
            g = int(rng.integers(1, 3))
            p = rand_siegel_point(g, rng)
            cert = siegel_reduce(p)
            assert siegel_membership(cert.reduced)[0]

    def test_g3_best_effort(self, rng):
        for _ in range(10):
            p = rand_siegel_point(3, rng)
            cert = siegel_reduce(p)
            assert siegel_membership(cert.reduced)[0]

    def test_highest_point_step_gl_move(self, rng):
        # non-reduced Y triggers the embedded GL move: Im transforms as Y[U];
        # the large scale keeps every det candidate quiet, isolating the move
        y = 4.0 * np.array([[1.0, 0.6], [0.6, 1.0]])
        p = SiegelPoint(np.zeros((2, 2)), y)
        nxt, step = highest_point_step(p)
        assert not step.is_identity()
        from siegeljacobi.minkowski import minkowski_reduce
        expected = minkowski_reduce(y).reduced
        assert np.allclose(nxt.Y, expected, atol=1e-10)

    def test_gl_move_coerces_transform_once(self, monkeypatch):
        # UnimodularInt coerces the reducer's exact U, and the GL move embeds
        # those entries as they are instead of coercing them again
        from siegeljacobi import group_core, minkowski
        builtin_candidates(2)   # loaded (and coerced) before counting
        seen = []
        for mod in (group_core, minkowski):
            monkeypatch.setattr(mod, "as_imat",
                                lambda m, _coerce=mod.as_imat: seen.append(1) or _coerce(m))
        p = SiegelPoint(np.zeros((2, 2)), 4.0 * np.array([[1.0, 0.6], [0.6, 1.0]]))
        _, step = highest_point_step(p)
        assert not step.is_identity() and len(seen) == 1

    def test_highest_point_step_translation(self):
        p = SiegelPoint(np.array([[0.9]]), np.array([[5.0]]))
        nxt, step = highest_point_step(p)
        assert abs(nxt.X[0, 0] - (-0.1)) < 1e-12

    def test_highest_point_step_identity_inside(self, rng):
        p = rand_interior_siegel(2, rng)
        nxt, step = highest_point_step(p)
        assert step.is_identity()
        assert np.allclose(nxt.omega, p.omega)

    def test_tiny_g1_point_matches_classical(self):
        # the first inversion lands near Re = -2.75e19, whose translation
        # used to overflow an int64 cast and leave Re unreduced
        tau = (0.3 + 1j) * 1e-20
        cert = siegel_reduce(SiegelPoint.from_omega([[tau]]))
        assert cert.iterations == 2
        assert complex(cert.reduced.omega[0, 0]) == sl2z_reduce_oracle(tau)

    def test_lost_definiteness_is_a_reduction_failure(self):
        # used to escape as the point builder's ValueError, i.e. as bad input
        p = SiegelPoint(*STEP_DEFINITENESS_LOSS)
        with pytest.raises(SiegelReductionError, match="not positive definite") as err:
            siegel_reduce(p)
        best = err.value.best
        assert isinstance(best, SiegelPoint) and np.linalg.det(best.Y) > np.linalg.det(p.Y)


class TestOneActionPerStep:
    """Only a candidate step (C != 0) runs act_siegel; the GL move and the
    translation act on (X, Y) directly."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        monkeypatch.setattr(siegel, "act_siegel",
                            lambda m, p, _act=siegel.act_siegel: calls.append(m) or _act(m, p))
        return calls

    def test_gl_move_makes_no_call(self, monkeypatch):
        calls = self.spy(monkeypatch)
        p = SiegelPoint(np.zeros((2, 2)), 4.0 * np.array([[1.0, 0.6], [0.6, 1.0]]))
        _, step = highest_point_step(p)
        assert not step.is_identity() and calls == []

    def test_one_call_per_candidate_step(self, monkeypatch):
        calls = self.spy(monkeypatch)
        rng = np.random.default_rng(21)
        c_zero = c_nonzero = 0
        for g in (1, 2, 3):
            for _ in range(10):
                cur, step = highest_point_step(rand_siegel_point(g, rng))
                while not step.is_identity():
                    fired = bool(step.C.any())
                    c_zero, c_nonzero = c_zero + (not fired), c_nonzero + fired
                    assert len(calls) == c_nonzero
                    cur, step = highest_point_step(cur)
        assert len(calls) == c_nonzero > 0 and c_zero > 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(g=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_reduced_interior_point_is_a_fixed_point(g, seed):
    cert = siegel_reduce(rand_siegel_point(g, np.random.default_rng(seed)))
    if cert.on_boundary:
        return
    again = siegel_reduce(cert.reduced)
    assert again.iterations == 0 and again.gamma.is_identity()
    assert not again.on_boundary
    for a, b in ((again.reduced.X, cert.reduced.X), (again.reduced.Y, cert.reduced.Y)):
        assert a.tobytes() == b.tobytes()


def test_certificates_carry_the_guarantee(rng):
    from siegeljacobi.jacobi_domain import jacobi_reduce
    from conftest import rand_jacobi_point
    for g, want in ((1, "exact"), (2, "exact"), (3, "relative-to-family")):
        assert siegel_reduce(rand_siegel_point(g, rng)).guarantee == want
    assert jacobi_reduce(rand_jacobi_point(2, 1, rng)).guarantee == "exact"
    g2 = CandidateSet(2, heuristic_candidates(2).elements)
    assert siegel_reduce(rand_siegel_point(2, rng), g2).guarantee == "relative-to-family"


def test_det_sq_matches_action(rng):
    # |det(C omega + D)|^{-2} equals the det Im ratio of the action
    cands = builtin_candidates(2)
    for _ in range(20):
        p = rand_siegel_point(2, rng)
        vals = det_sq(cands, p.omega)
        for m, v in list(zip(cands.elements, vals))[:10]:
            q = act_siegel(m, p)
            ratio = np.linalg.det(q.Y) / np.linalg.det(p.Y)
            assert abs(ratio - 1.0 / v) < 1e-8 * max(1.0, 1.0 / v)


class TestDeterminantKernel:
    """The polynomial kernel against the direct determinant as oracle."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(g=st.integers(1, 2), data=st.data())
    def test_matches_direct_determinant(self, g, data):
        def draw(elems):
            flat = data.draw(st.lists(elems, min_size=g * g, max_size=g * g))
            return np.array(flat).reshape(g, g)
        c, d = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        x, a = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
        omega = 0.5 * (x + x.T) + 1j * (a @ a.T + 0.1 * np.eye(g))
        # any integer blocks, not only symplectic ones, obey the identity
        table = np.array([_det_coefficients(as_imat(c), as_imat(d))], dtype=float)
        kernel = SimpleNamespace(g=g, det_table=table)
        got = _det_sq_batch(kernel, omega.real[None], omega.imag[None])[0, 0]
        want = abs(np.linalg.det(c @ omega + d)) ** 2
        assert abs(got - want) <= 1e-10 * max(1.0, want)

    def test_g3_batched_determinant(self, rng):
        cands = builtin_candidates(3)
        p = rand_siegel_point(3, rng)
        want = [abs(np.linalg.det(np.asarray(m.C, float) @ p.omega
                                  + np.asarray(m.D, float))) ** 2
                for m in cands.elements]
        assert np.allclose(det_sq(cands, p.omega), want, rtol=1e-12)

    def test_table_built_once(self):
        cands = builtin_candidates(2)
        assert cands.det_table is cands.det_table
        assert cands.det_table.shape == (len(cands), 5)

    @pytest.mark.parametrize("g", [1, 2])
    def test_a_point_alone_gets_its_column_of_the_batch(self, g):
        # bit for bit: numpy's matrix-vector kernel, which a one-column
        # product would take, can differ in the last bit
        rng = np.random.default_rng(2000 + g)
        cands = builtin_candidates(g)
        x = rng.uniform(-0.5, 0.5, size=(2000, g, g))
        a = rng.normal(size=(2000, g, g))
        xs = 0.5 * (x + np.swapaxes(x, 1, 2))
        ys = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(g)
        batch = _det_sq_batch(cands, xs, ys)
        alone = np.stack([det_sq(cands, xi + 1j * yi) for xi, yi in zip(xs, ys)], axis=1)
        assert batch.shape == alone.shape == (len(cands), 2000)
        assert np.array_equal(alone.view(np.uint64), batch.view(np.uint64))

    def test_mc_volume_pinned_to_reference(self):
        # accepted count and estimate of the matmul-per-candidate mask this
        # kernel replaced, recorded before the change; the kernel must keep
        # every sample's verdict
        res = volume_fg_mc(2, 200_000, seed=123)
        assert round(res.acceptance_rate * 200_000) == 116798
        assert res.estimate == 0.11506186120898841


def test_control_flow_checks_survive_optimize():
    # each check that guards a reduction result is forced to fail, under
    # `python -O`, which would strip an assert
    code = """
import numpy as np
from siegeljacobi import intmat, minkowski, siegel
intmat._xgcd = lambda a, b: (2, 0, 0)
minkowski.complete_primitive = lambda tail: 2 * intmat.ieye(len(tail))
membership, siegel.siegel_membership = siegel.siegel_membership, lambda *a: (False, False)
point = siegel.SiegelPoint.from_omega(2j * np.eye(2))

def forged_certificate():
    siegel.siegel_membership, siegel.symplectic_check = membership, lambda m: False
    siegel.siegel_reduce(point)

calls = ((lambda: intmat.complete_primitive([1, 1]), ValueError),
         (lambda: minkowski._column_step(3, 1, [0, 1, 0]), minkowski.ReductionError),
         (lambda: siegel.siegel_reduce(point), siegel.SiegelReductionError),
         (forged_certificate, siegel.SiegelReductionError))
for call, exc in calls:
    try:
        call()
    except exc:
        print('raised')
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.stdout.split() == ["raised"] * 4, out.stderr


def test_empty_candidate_set_leaves_box_and_minkowski_mask():
    empty = CandidateSet(2, (SymplecticInt.identity(2),))
    assert len(empty) == 0
    xs = np.zeros((3, 2, 2))
    ys = np.stack([np.eye(2), np.eye(2), [[1.0, 0.6], [0.6, 1.0]]])
    xs[1, 0, 0] = 0.7
    assert membership_mask_points(xs, ys, empty).tolist() == [True, False, False]
    assert det_sq(empty, 1j * np.eye(2)).shape == (0,)


def _onto_det_surface(p, cands):
    """p with Im scaled down to where the smallest candidate |det|^2 meets 1:
    bisection keeps the upper end, where every candidate holds."""
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if det_sq(cands, p.X + 1j * mid * p.Y).min() >= 1.0:
            hi = mid
        else:
            lo = mid
    return SiegelPoint(p.X, hi * p.Y)


def _x_face(p, i, j, value):
    x = p.X.copy()
    x[i, j] = x[j, i] = value
    return SiegelPoint(x, p.Y)


def _m2_face(p):
    y = p.Y.copy()
    y[0, 1] = y[1, 0] = 0.0
    return SiegelPoint(p.X, y)


class TestBoundaryFamilies:
    """Seeded interior points moved onto one boundary family each: an X face
    (one entry at +-1/2), an (M.2) face (y12 = 0) and a candidate det
    surface.  Library, reducer and CLI all see a member on the boundary."""

    def _moved(self, g, seed):
        p = rand_interior_siegel(g, np.random.default_rng(seed))
        assert siegel_membership(p) == (True, False)
        moved = [_x_face(p, i, j, s * 0.5) for i in range(g) for j in range(i, g)
                 for s in (1, -1)]
        return moved + [_m2_face(p), _onto_det_surface(p, builtin_candidates(g))]

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_library_and_reducer(self, g, seed):
        for q in self._moved(g, seed):
            assert siegel_membership(q) == (True, True)
            cert = siegel_reduce(q)
            assert cert.on_boundary and cert.iterations == 0
            assert np.array_equal(cert.reduced.omega, q.omega)

    @pytest.mark.parametrize("g", [2, 3])
    def test_cli_member(self, g, tmp_path, capsys):
        for q in self._moved(g, 0):
            path = tmp_path / "p.json"
            path.write_text(json.dumps(encode_siegel_point(q)))
            assert main(["member", "--siegel", "--point", str(path)]) == 0
            out = json.loads(capsys.readouterr().out)["outputs"]
            assert out == {"member": True, "on_boundary": True}

    def test_one_x_entry_on_its_face(self):
        # only x11 is at 1/2: the face is flagged all the same
        y = np.array([[1.5, 0.3], [0.3, 1.8]])
        for x in ([[0.5, 0.1], [0.1, 0.2]], [[0.5, 0.5], [0.5, -0.5]]):
            p = SiegelPoint(np.array(x), y)
            assert siegel_membership(p) == (True, True)
            assert siegel_reduce(p).on_boundary

    @pytest.mark.parametrize("g", [2, 3])
    def test_x_entry_past_the_face_is_outside(self, g):
        p = rand_interior_siegel(g, np.random.default_rng(0))
        for i, j in ((0, 0), (0, 1)):
            for s in (1, -1):
                q = _x_face(p, i, j, s * (0.5 + 2 * DEFAULT_EPS))
                assert siegel_membership(q) == (False, False)

    @pytest.mark.parametrize("g", [2, 3])
    def test_flags_match_the_oracle(self, g):
        for seed in range(3):
            for q in self._moved(g, seed):
                for eps in (DEFAULT_EPS, 1e-3):
                    want = siegel_flags_oracle(q, eps=eps)
                    assert want == siegel_membership(q, eps=eps) == (True, True)
                    assert siegel_reduce(q, eps=eps).on_boundary

    @pytest.mark.parametrize("g", [2, 3])
    def test_negative_eps_is_the_strict_interior(self, g):
        p = rand_interior_siegel(g, np.random.default_rng(0))
        assert siegel_membership(p, eps=-DEFAULT_EPS) == (True, False)
        assert is_minkowski_reduced(p.Y, eps=-DEFAULT_EPS)
        for q in self._moved(g, 0):
            assert siegel_membership(q, eps=-DEFAULT_EPS) == (False, False)
        # an (M.1) face: a = (1, -1) gives y11 - 2 y12 + y22 = y22
        face = np.array([[1.0, 0.5], [0.5, 1.3]])
        assert is_minkowski_reduced(face) and not is_minkowski_reduced(face, eps=-DEFAULT_EPS)

    def test_negative_eps_at_g1(self):
        inner = SiegelPoint.from_omega([[0.1 + 2j]])
        assert siegel_membership(inner, eps=-DEFAULT_EPS) == (True, False)
        for omega in (0.5 + 5j, -0.5 + 5j, 1j, 0.3 + np.sqrt(0.91) * 1j):
            q = SiegelPoint.from_omega([[omega]])
            assert siegel_membership(q) == (True, True)
            assert siegel_membership(q, eps=-DEFAULT_EPS) == (False, False)


class TestFlagsMatchOracle:
    """siegel_membership and siegel_reduce against siegel_flags_oracle, the
    inequality-by-inequality test, on seeded reduced points.  The wider eps
    put many of them on the boundary."""

    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("eps", [DEFAULT_EPS, 3e-2, 1e-1])
    def test_reduced_points(self, g, eps):
        rng = np.random.default_rng(100 + g)
        flagged = 0
        for _ in range(60):
            cert = siegel_reduce(rand_siegel_point(g, rng), eps=eps)
            want = siegel_flags_oracle(cert.reduced, eps=eps)
            assert want[0] and cert.on_boundary == want[1]
            assert siegel_membership(cert.reduced, eps=eps) == want
            flagged += want[1]
        assert eps == DEFAULT_EPS or 0 < flagged < 60


def two_call_flags(p, cands=None, eps=DEFAULT_EPS):
    """The flag rule as two scalar mask calls on p alone: a member at eps
    that is not a member at -eps is on the boundary."""
    cands = builtin_candidates(p.g) if cands is None else cands
    xs, ys = p.X[None], p.Y[None]
    member = bool(membership_mask_points(xs, ys, cands, eps)[0])
    return member, member and not membership_mask_points(xs, ys, cands, -eps)[0]


class TestOnePassFlags:
    """siegel_membership evaluates [p, p] at [eps, -eps] once; its verdict
    and flag are the two-call rule's."""

    def test_one_mask_call(self, monkeypatch):
        calls = []

        def spy(xs, ys, cands, eps):
            calls.append(np.asarray(eps).tolist())
            return membership_mask_points(xs, ys, cands, eps)

        monkeypatch.setattr(siegel, "membership_mask_points", spy)
        for eps in (DEFAULT_EPS, -DEFAULT_EPS):
            siegel_membership(SiegelPoint.from_omega([[0.5 + 5j]]), eps=eps)
        assert calls == [[DEFAULT_EPS, -DEFAULT_EPS], [-DEFAULT_EPS, DEFAULT_EPS]]

    @pytest.mark.parametrize("eps", [DEFAULT_EPS, -DEFAULT_EPS, 3e-2])
    def test_pinned_points(self, eps):
        # the points of test_pinned_certificates, before and after reduction,
        # and each reduced point moved onto an X face
        rng = np.random.default_rng(PINNED_SEED)
        flagged = 0
        for g in (1, 2, 3):
            for _ in range(8):
                p = rand_siegel_point(g, rng)
                red = siegel_reduce(p).reduced
                for q in (p, red, _x_face(red, 0, g - 1, 0.5)):
                    want = two_call_flags(q, eps=eps)
                    assert siegel_membership(q, eps=eps) == want
                    flagged += want[1]
        # at -eps nothing is flagged: a member at -eps is one at +eps
        assert flagged >= 24 if eps > 0 else flagged == 0

    def test_03_points(self):
        # the first 2,000 of test_03's 10^4 g = 1 points, reduced, at eps and
        # at an eps wide enough to flag many of them
        rng = np.random.default_rng(3)
        flags = {DEFAULT_EPS: 0, 3e-2: 0}
        for _ in range(2000):
            tau = complex(rng.normal(0, 2), np.exp(rng.normal(0, 1.5)))
            red = siegel_reduce(SiegelPoint.from_omega([[tau]])).reduced
            for eps in flags:
                want = two_call_flags(red, eps=eps)
                assert want[0] and siegel_membership(red, eps=eps) == want
                flags[eps] += want[1]
        assert 100 < flags[3e-2] < 2000


def test_cap_error_carries_the_det_trace(monkeypatch):
    # at the iteration cap the trace is det Im of every iterate the
    # highest-point loop reached, which never decreases
    points = [SiegelPoint.from_omega([[0.3 + 0.001j]]),
              SiegelPoint.from_omega(np.array([[0.4 + 0.01j, 0.1], [0.1, -0.3 + 0.02j]]))]
    for p in points:
        chain = [p]
        while not highest_point_step(chain[-1])[1].is_identity():
            chain.append(highest_point_step(chain[-1])[0])
        assert siegel_reduce(p).iterations == len(chain) - 1 >= 3
        for cap in range(1, len(chain) - 1):
            monkeypatch.setattr(siegel, "MAX_ITERS", cap)
            with pytest.raises(SiegelReductionError, match="iteration cap") as err:
                siegel_reduce(p)
            want = [float(np.linalg.det(q.Y)) for q in chain[:cap + 1]]
            assert err.value.trace == want
            assert np.array_equal(err.value.best.omega, chain[cap].omega)
            assert all(b >= a for a, b in zip(want, want[1:])) and want[-1] > want[0]
        monkeypatch.undo()
