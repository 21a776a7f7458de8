"""The staged membership mask equals one pass of every test, bit for bit.

membership_mask_points rejects on the single-monomial rows first and runs
the box, Minkowski and determinant tests only on the points that pass;
membership_mask_oracle (conftest) runs every test on every point.  Each
case is checked at eps and at -eps, the strict interior.  That oracle calls
the mask's own kernels, so literal_membership, which shares none, checks
the verdicts that rounding cannot decide.
"""

import itertools

import numpy as np
import pytest

from siegeljacobi import geometry, minkowski
from siegeljacobi.minkowski import DEFAULT_EPS, _column_tables, _form_features
from siegeljacobi.siegel import (CandidateSet, _omega_monomials, builtin_candidates,
                                 load_candidates, membership_mask_points, siegel_reduce)
from conftest import (gottschling_surface_points, membership_mask_oracle, minkowski_floors,
                      onto_minkowski_faces, rand_siegel_point, write_candidates)


def assert_matches_oracle(xs, ys, cands):
    """Both masks at eps and -eps; returns the number accepted at eps."""
    for eps in (DEFAULT_EPS, -DEFAULT_EPS):
        with np.errstate(invalid="ignore", over="ignore"):
            got = membership_mask_points(xs, ys, cands, eps)
            want = membership_mask_oracle(xs, ys, cands, eps)
        assert got.dtype == bool and got.shape == (len(xs),)
        assert np.array_equal(got, want), (eps, np.flatnonzero(got != want))
        if eps > 0:
            accepted = int(got.sum())
    return accepted


def proposal_batches(g, seeds, n, monkeypatch):
    """The (X, Y) samples of volume_fg_mc's chunk at each seed (n fits in one
    chunk): the block batches the chunk hands to the mask, concatenated.
    They must be the chunk's samples in order, which the chunk hands over in
    one batch when its block holds the whole chunk."""
    assert n <= geometry.MC_CHUNK

    def mask_calls(seed, block):
        calls = []

        def spy(xs, ys, cands, *args):
            calls.append((xs, ys))
            return membership_mask_points(xs, ys, cands, *args)

        with monkeypatch.context() as m:
            m.setattr(geometry, "membership_mask_points", spy)
            m.setattr(geometry, "ROW_BLOCK", block)
            geometry.volume_fg_mc(g, n, seed=seed)
        return calls

    batches = []
    for seed in seeds:
        blocks = mask_calls(seed, geometry.ROW_BLOCK)
        (whole_x, whole_y), = mask_calls(seed, n)
        xs = np.concatenate([x for x, _ in blocks])
        ys = np.concatenate([y for _, y in blocks])
        assert np.array_equal(xs, whole_x) and np.array_equal(ys, whole_y)
        batches.append((xs, ys))
    return batches


def members(g, count, seed):
    """Reduced points: the domain's members, as (xs, ys) stacks."""
    rng = np.random.default_rng(seed)
    pts = [siegel_reduce(rand_siegel_point(g, rng)).reduced for _ in range(count)]
    return np.stack([p.X for p in pts]), np.stack([p.Y for p in pts])


def onto_box_faces(xs, ys):
    """Each point with one entry pair x_ij = x_ji moved onto |x_ij| = 1/2,
    onto the eps threshold, and one step beyond each."""
    g = xs.shape[-1]
    out_x, out_y = [], []
    for v in (0.5, 0.5 + DEFAULT_EPS, 0.5 - DEFAULT_EPS, np.nextafter(0.5 + DEFAULT_EPS, 1.0)):
        for sign in (1.0, -1.0):
            for i in range(g):
                for j in range(i, g):
                    x = xs.copy()
                    x[:, i, j] = x[:, j, i] = sign * v
                    out_x.append(x)
                    out_y.append(ys)
    return np.concatenate(out_x), np.concatenate(out_y)


def with_non_finite(xs, ys):
    """Each point with one entry of X or of Y made inf, -inf or nan."""
    g = xs.shape[-1]
    out_x, out_y = [], []
    for bad in (np.inf, -np.inf, np.nan):
        for i in range(g):
            for j in range(g):
                for target in (0, 1):
                    x, y = xs.copy(), ys.copy()
                    (x, y)[target][:, i, j] = bad
                    out_x.append(x)
                    out_y.append(y)
    return np.concatenate(out_x), np.concatenate(out_y)


def on_circle(level):
    """(x, y), 0 <= x < 1/2, with x*x + y*y == level in floating point: a
    monomial w = x + iy exactly at the threshold |w|^2 >= level."""
    for x in np.arange(0.0, 0.5, 1.0 / 64):
        y0 = np.sqrt(level - x * x)
        for y in y0 + np.arange(-40, 41) * np.spacing(y0):
            if x * x + y * y == level:
                return x, y
    raise AssertionError("no point found at level %r" % level)


def unit_row_thresholds():
    """g = 1 and g = 2 points with |w11|^2 or |w22|^2 exactly at 1 - eps,
    1 and 1 + eps, and everything else strictly satisfied for w11."""
    g1, g2 = [], []
    for level in (1.0 - DEFAULT_EPS, 1.0, 1.0 + DEFAULT_EPS):
        x, y = on_circle(level)
        g1.append(([[x]], [[y]]))
        g2.append(([[x, 0.0], [0.0, 0.0]], [[y, 0.1], [0.1, 2.0]]))
        g2.append(([[0.5, 0.0], [0.0, x]], [[0.9, 0.1], [0.1, y]]))
    return [tuple(np.array(v, dtype=float) for v in zip(*pts)) for pts in (g1, g2)]


def witness_batch():
    """Gottschling's 19 surface points, just below and just above each surface."""
    pts = gottschling_surface_points()
    xs = np.stack([x for _, x, _, _ in pts for _ in (0, 1)])
    ys = np.stack([y for _, _, below, above in pts for y in (below, above)])
    return xs, ys


@pytest.fixture(scope="module")
def member_pool():
    return {g: members(g, 12, 100 + g) for g in (1, 2, 3)}


def literal_membership(xs, ys, cands, eps):
    """Each point's verdict and the smallest relative slack of its tests,
    by code that shares no kernel with the mask: the X box by a literal max,
    (M.1) for the vectors itertools.product enumerates, (M.2), and
    |det(C Omega + D)|^2 by np.linalg.det for each certifying element.  As
    the mask does, it reads (M.2) and Omega on and above the diagonal, and
    a form a Y t(a) from the whole matrix.  At g = 1 it leaves out y11 > 0,
    which every point of a pool has."""
    n, g = xs.shape[0], xs.shape[-1]
    tests = [(np.full(n, 0.5 + eps), np.array([max(abs(v) for v in x.flat) for x in xs]))]
    m1, m2 = minkowski_floors(ys, eps)
    for k in range(g):
        unit = tuple(int(i == k) for i in range(g))
        for a in itertools.product((-1, 0, 1), repeat=g):
            if any(a[k:]) and a != unit and a != tuple(-v for v in unit):
                av = np.array(a, dtype=float)
                tests.append((np.einsum("i,nij,j->n", av, ys, av), m1[:, k]))
    tests += [(ys[:, k, k + 1], m2[:, k]) for k in range(g - 1)]
    w = xs + 1j * ys
    omega = np.where(np.triu(np.ones((g, g), dtype=bool)), w, np.swapaxes(w, -1, -2))
    for m in cands.certifying.elements:
        c, d = (np.array(b, dtype=float) for b in (m.C, m.D))
        tests.append((np.abs(np.linalg.det(c @ omega + d)) ** 2, np.full(n, 1.0 - eps)))
    big, small = (np.array(side) for side in zip(*tests))
    slack = np.abs(big - small) / np.maximum(np.abs(big), np.abs(small))
    return np.all(big >= small, axis=0), slack.min(axis=0)


class TestProposalBatches:
    @pytest.mark.parametrize("g", [1, 2])
    def test_chunks_of_three_seeds(self, g, monkeypatch):
        for xs, ys in proposal_batches(g, (123, 7, 2024), 30_000, monkeypatch):
            accepted = assert_matches_oracle(xs, ys, builtin_candidates(g))
            assert 0 < accepted < len(xs)

    def test_batches_of_one(self, monkeypatch):
        (xs, ys), = proposal_batches(2, (99,), 400, monkeypatch)
        wx, wy = witness_batch()
        xs, ys = np.concatenate([xs, wx]), np.concatenate([ys, wy])
        cands = builtin_candidates(2)
        accepted = sum(assert_matches_oracle(xs[i:i + 1], ys[i:i + 1], cands)
                       for i in range(len(xs)))
        assert 0 < accepted < len(xs)

    def test_none_and_all_pass_the_prefilter(self, member_pool):
        cands = builtin_candidates(2)
        xs, ys = member_pool[2]
        assert assert_matches_oracle(xs, ys, cands) == len(xs)
        # |w11| < 1 everywhere: the prefilter drops every point
        small = ys.copy()
        small[:, 0, 0] = 0.5
        small[:, 0, 1] = small[:, 1, 0] = 0.1
        xs = xs.copy()
        xs[:, 0, 0] = 0.25
        assert assert_matches_oracle(xs, small, cands) == 0
        assert assert_matches_oracle(xs[:0], small[:0], cands) == 0


class TestGenera:
    def test_g1_and_g3(self, member_pool, rng):
        for g in (1, 3):
            mx, my = member_pool[g]
            pts = [rand_siegel_point(g, rng, x_scale=0.3, floor=0.6) for _ in range(200)]
            xs = np.concatenate([mx, np.stack([p.X for p in pts])])
            ys = np.concatenate([my, np.stack([p.Y for p in pts])])
            accepted = assert_matches_oracle(xs, ys, builtin_candidates(g))
            assert len(mx) <= accepted < len(xs)

    def test_g3_has_no_prefilter(self):
        assert builtin_candidates(3).certifying._unit_entries == ()
        assert builtin_candidates(2).certifying._unit_entries == ((0, 0), (1, 1))
        assert builtin_candidates(1).certifying._unit_entries == ((0, 0),)


class TestIndependentOracle:
    """membership_mask_points agrees with literal_membership wherever the
    smallest relative slack exceeds 1e-9.  At g = 2 the pool also holds its
    points with the entries below the diagonal negated, so that a test
    reading the wrong side of the diagonal flips verdicts."""

    @staticmethod
    def pool(g, member_pool, monkeypatch):
        mx, my = member_pool[g]
        if g == 3:
            rng = np.random.default_rng(5)
            pts = [rand_siegel_point(3, rng, x_scale=0.3, floor=0.6) for _ in range(300)]
            return (np.concatenate([mx, np.stack([p.X for p in pts])]),
                    np.concatenate([my, np.stack([p.Y for p in pts])]))
        (px, py), = proposal_batches(g, (123,), 20_000, monkeypatch)
        xs, ys = np.concatenate([mx, px]), np.concatenate([my, py])
        if g == 2:
            below = np.tril(np.ones((2, 2), dtype=bool), -1)
            xs, ys = (np.concatenate([v, np.where(below, -v, v)]) for v in (xs, ys))
        return xs, ys

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_agrees(self, g, member_pool, monkeypatch):
        xs, ys = self.pool(g, member_pool, monkeypatch)
        cands = builtin_candidates(g)
        for eps in (DEFAULT_EPS, -DEFAULT_EPS):
            want, slack = literal_membership(xs, ys, cands, eps)
            kept = slack > 1e-9
            got = membership_mask_points(xs, ys, cands, eps)
            assert np.array_equal(got[kept], want[kept]), np.flatnonzero(got[kept] != want[kept])
            assert kept.sum() >= 0.9 * len(xs)
            assert 0 < want[kept].sum() < kept.sum()
            if eps > 0:  # the reduced points lead the pool
                assert want[:len(member_pool[g][0])].all()


class TestFaces:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_box_faces(self, g, member_pool):
        xs, ys = onto_box_faces(*member_pool[g])
        accepted = assert_matches_oracle(xs, ys, builtin_candidates(g))
        assert 0 < accepted < len(xs)

    @pytest.mark.parametrize("g", [2, 3])
    def test_minkowski_faces(self, g, member_pool):
        xs, ys = onto_minkowski_faces(*member_pool[g])
        accepted = assert_matches_oracle(xs, ys, builtin_candidates(g))
        assert 0 < accepted < len(xs)

    def test_unit_row_thresholds(self):
        for (xs, ys), g in zip(unit_row_thresholds(), (1, 2)):
            cands = builtin_candidates(g)
            assert assert_matches_oracle(xs, ys, cands) >= 3
            for i in range(len(xs)):
                assert_matches_oracle(xs[i:i + 1], ys[i:i + 1], cands)

    def test_gottschling_surfaces(self):
        xs, ys = witness_batch()
        assert assert_matches_oracle(xs, ys, builtin_candidates(2)) == len(xs)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_non_finite_entries(self, g, member_pool):
        xs, ys = with_non_finite(*member_pool[g])
        assert_matches_oracle(xs, ys, builtin_candidates(g))


def test_family_without_the_unit_rows(tmp_path, member_pool, monkeypatch):
    # without +-w11 and +-w22 the family is not Gottschling's, certifying is
    # the whole family, and no row gives a prefilter
    full = builtin_candidates(2)
    keep = tuple(m for m, row in zip(full.elements, full.det_table)
                 if tuple(np.abs(row).astype(int)) not in {(0, 1, 0, 0, 0), (0, 0, 0, 1, 0)})
    write_candidates(CandidateSet(2, keep), tmp_path / "c.json")
    fam = load_candidates(tmp_path / "c.json")
    assert len(fam) == len(full) - 2
    assert fam.certifying is fam and fam.certifying._unit_entries == ()
    (xs, ys), = proposal_batches(2, (5,), 20_000, monkeypatch)
    for extra in (member_pool[2], onto_box_faces(*member_pool[2]),
                  with_non_finite(*member_pool[2]), witness_batch()):
        xs, ys = np.concatenate([xs, extra[0]]), np.concatenate([ys, extra[1]])
    accepted = assert_matches_oracle(xs, ys, fam)
    assert 0 < accepted < len(xs)


class TestLayouts:
    """The masks read entry rows, so a pool gets the same mask as C-ordered
    (n, g, g) stacks and as the transposed views p.T of contiguous (g, g, n)
    entry planes p, the layout of the Monte Carlo chunks.  Both are
    read-only: no stage may write into the caller's arrays."""

    @staticmethod
    def read_only(v, planes):
        v = np.ascontiguousarray(v.T if planes else v)
        v.flags.writeable = False
        return v.T if planes else v

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_stacks_and_planes(self, g, member_pool):
        pool = member_pool[g]
        parts = [pool, onto_box_faces(*pool), with_non_finite(*pool)]
        parts += [onto_minkowski_faces(*pool)] if g > 1 else []
        parts += [witness_batch()] if g == 2 else []
        xs, ys = (np.concatenate(v) for v in zip(*parts))
        (sx, sy), (px, py) = ([self.read_only(v, planes) for v in (xs, ys)]
                              for planes in (False, True))
        assert sx.flags.c_contiguous and px.T.flags.c_contiguous
        cands = builtin_candidates(g)
        with np.errstate(invalid="ignore", over="ignore"):
            for eps in (DEFAULT_EPS, -DEFAULT_EPS):
                got = membership_mask_points(sx, sy, cands, eps)
                assert np.array_equal(membership_mask_points(px, py, cands, eps), got)
                assert 0 < got.sum() < len(got)
                mink = minkowski.membership_mask(sy, eps=eps)
                assert np.array_equal(minkowski.membership_mask(py, eps=eps), mink)
                assert 0 < mink.sum() < len(mink)
        assert all(np.array_equal(v, w, equal_nan=True) for v, w in ((px, xs), (py, ys)))

    def test_entries_above_the_diagonal_are_read(self):
        # a stack need not be symmetric: the (M.2) sign test and the monomial
        # w12 read the entry above the diagonal, in either layout
        xs = np.array([[[0.0, 0.3], [-0.2, 0.0]]] * 2)
        ys = np.array([[[1.0, -0.1], [0.1, 2.0]], [[1.0, 0.1], [-0.1, 2.0]]])
        for x, y in ((xs, ys), [self.read_only(v, True) for v in (xs, ys)]):
            assert minkowski.membership_mask(y).tolist() == [False, True]
            fr, fi = _omega_monomials(x, y)
            assert fr[2].tolist() == [0.3, 0.3] and fi[2].tolist() == [-0.1, 0.1]


class TestBlockSize:
    """ROW_BLOCK, read by geometry only, changes no bit of a Monte Carlo
    estimate, and a point's verdict does not depend on its batch."""

    READERS = (geometry,)

    @pytest.fixture(scope="class")
    def cases(self, member_pool):
        out = [(g, batch) for g, batch in zip((1, 2), unit_row_thresholds())]
        out.append((2, witness_batch()))
        for g in (1, 2, 3):
            pool = member_pool[g]
            out += [(g, pool), (g, onto_box_faces(*pool)), (g, with_non_finite(*pool))]
            if g > 1:
                out.append((g, onto_minkowski_faces(*pool)))
        return out

    def small_blocks(self, block, monkeypatch):
        for mod in self.READERS:
            monkeypatch.setattr(mod, "ROW_BLOCK", block)

    @pytest.mark.parametrize("piece", [1, 2, 7])
    def test_masks(self, piece, cases):
        # pieces of 1 are lone points, which each kernel stacks twice
        with np.errstate(invalid="ignore", over="ignore"):
            for g, (xs, ys) in cases:
                cands = builtin_candidates(g)
                for eps in (DEFAULT_EPS, -DEFAULT_EPS):
                    whole = membership_mask_points(xs, ys, cands, eps)
                    parts = [membership_mask_points(xs[i:i + piece], ys[i:i + piece], cands, eps)
                             for i in range(0, len(xs), piece)]
                    assert np.array_equal(whole, np.concatenate(parts)), (g, eps)

    @pytest.mark.parametrize("g", [2, 3])
    def test_a_matrix_alone_at_its_own_threshold(self, g, member_pool):
        # on the Minkowski faces, with eps = y_kk - (least form of the binding
        # column k) in the batch's bits (exact: the two are within a factor
        # 2), the last bit of a form decides; numpy's matrix-vector kernel,
        # which a one-column product would take, can differ in that bit
        ys = onto_minkowski_faces(*member_pool[g])[1][::3]
        feats = _form_features(ys)
        mins = np.stack([(mono @ feats).min(axis=0) for _, mono in _column_tables(g)])
        cols = np.argmin(mins - np.diagonal(ys, axis1=1, axis2=2).T, axis=0)
        verdicts = []
        for i, k in enumerate(cols):
            eps = ys[i, k, k] - mins[k, i]
            alone = minkowski.membership_mask(ys[i:i + 1], eps=eps)[0]
            assert alone == minkowski.membership_mask(ys, eps=eps)[i], i
            verdicts.append(alone)
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_volumes(self, block, monkeypatch):
        want = [geometry.volume_fg_mc(g, 30_000, seed=31) for g in (1, 2)]
        self.small_blocks(block, monkeypatch)
        sizes = []

        def spy(xs, ys, cands, *args):
            sizes.append(len(xs))
            return membership_mask_points(xs, ys, cands, *args)

        monkeypatch.setattr(geometry, "membership_mask_points", spy)
        got = [geometry.volume_fg_mc(g, 30_000, seed=31) for g in (1, 2)]
        assert len(sizes) == 2 * -(-30_000 // block) and max(sizes) == block
        for w, r in zip(want, got):
            assert (r.estimate.hex(), r.stderr.hex()) == (w.estimate.hex(), w.stderr.hex())
            assert r.acceptance_rate == w.acceptance_rate


def around(v):
    """v and the floats one ulp either side of it."""
    return (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))


def ulp_thresholds(g):
    """Points within an ulp of the thresholds at eps and at -eps: |w11|^2
    around 1 - eps and 1 + eps (g <= 2), and one X entry around 1/2 + eps
    and 1/2 - eps (every g), everything else strictly inside."""
    xs, ys = [], []
    # y11 < y22 < ...: the (M.1) forms a = e_j hold strictly
    base_x = np.zeros((g, g))
    base_y = np.diag(np.arange(1.0, g + 1)) + 0.1 * (np.ones((g, g)) - np.eye(g))
    if g <= 2:
        for level in around(1.0 - DEFAULT_EPS) + around(1.0 + DEFAULT_EPS):
            x, y = on_circle(level)
            px, py = base_x.copy(), base_y.copy()
            px[0, 0], py[0, 0] = x, y
            xs.append(px)
            ys.append(py)
    for v in around(0.5 + DEFAULT_EPS) + around(0.5 - DEFAULT_EPS):
        for i, j in ((0, 0), (0, g - 1)):
            px = base_x.copy()
            px[i, j] = px[j, i] = v
            xs.append(px)
            ys.append(2.0 * base_y)
    return np.stack(xs), np.stack(ys)


class TestPerPointEps:
    """eps as one value per point: each point's verdict is bit for bit that
    of a scalar call at its own eps, the layout siegel_membership uses
    ([p, p] at [eps, -eps]) included."""

    @pytest.fixture(scope="class")
    def batches(self, member_pool):
        out = {}
        for g in (1, 2, 3):
            pool = member_pool[g]
            parts = [pool, onto_box_faces(*pool), with_non_finite(*pool), ulp_thresholds(g)]
            if g > 1:
                parts.append(onto_minkowski_faces(*pool))
            if g < 3:
                parts.append(unit_row_thresholds()[g - 1])
            out[g] = tuple(np.concatenate(v) for v in zip(*parts))
        return out

    @staticmethod
    def assert_per_point(xs, ys, cands, eps):
        with np.errstate(invalid="ignore", over="ignore"):
            got = membership_mask_points(xs, ys, cands, eps)
            want = [membership_mask_points(xs[i:i + 1], ys[i:i + 1], cands, e)[0]
                    for i, e in enumerate(eps)]
            for e in np.unique(eps):
                sel = eps == e
                assert np.array_equal(got[sel], membership_mask_points(xs, ys, cands, e)[sel])
        assert got.dtype == bool and np.array_equal(got, want), np.flatnonzero(got != want)
        return got

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_pairs_at_plus_and_minus_eps(self, g, batches):
        xs, ys = (np.repeat(v, 2, axis=0) for v in batches[g])
        eps = np.tile([DEFAULT_EPS, -DEFAULT_EPS], len(xs) // 2)
        got = self.assert_per_point(xs, ys, builtin_candidates(g), eps)
        member, interior = got[0::2], got[1::2]
        assert not np.any(interior & ~member)
        # some members are on the boundary, some strictly inside
        assert np.any(member & ~interior) and np.any(interior)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_mixed_slacks(self, g, batches, rng):
        xs, ys = batches[g]
        eps = rng.choice([DEFAULT_EPS, -DEFAULT_EPS, 0.0, 3e-2], len(xs))
        self.assert_per_point(xs, ys, builtin_candidates(g), eps)

    @pytest.mark.parametrize("g", [1, 2])
    def test_stage_one_drops_at_minus_eps_only(self, g, batches):
        # points with 1 - eps <= |w11|^2 < 1 + eps pass the unit-entry stage
        # at eps and fail it at -eps, so the -eps copy leaves the batch there
        xs, ys = batches[g]
        sq = xs[:, 0, 0] ** 2 + ys[:, 0, 0] ** 2
        pick = np.flatnonzero((sq >= 1.0 - DEFAULT_EPS) & (sq < 1.0 + DEFAULT_EPS))
        assert pick.size >= 4
        xs, ys = np.repeat(xs[pick], 2, axis=0), np.repeat(ys[pick], 2, axis=0)
        eps = np.tile([DEFAULT_EPS, -DEFAULT_EPS], pick.size)
        got = self.assert_per_point(xs, ys, builtin_candidates(g), eps)
        assert got[0::2].any() and not got[1::2].any()

    def test_ulp_thresholds_decide(self):
        # one ulp below |w11|^2 = 1 - eps or above |x_ij| = 1/2 + eps (and
        # the same around 1 + eps and 1/2 - eps at -eps) flips the verdict
        want = {DEFAULT_EPS: ([0, 1, 1, 1, 1, 1], [1, 1, 0, 1, 1, 1]),
                -DEFAULT_EPS: ([0, 0, 0, 0, 1, 1], [0, 0, 0, 1, 1, 0])}
        for g in (1, 2, 3):
            xs, ys = ulp_thresholds(g)
            for e, (circle, box) in want.items():
                got = self.assert_per_point(xs, ys, builtin_candidates(g), np.full(len(xs), e))
                box = [b for b in box for _ in (0, 1)]  # two X entries per value
                assert got.tolist() == (circle if g <= 2 else []) + box

    def test_eps_shape_checked(self, member_pool):
        xs, ys = member_pool[2]
        for eps in (np.zeros(len(xs) - 1), np.zeros((len(xs), 1))):
            with pytest.raises(ValueError, match="one float or one per point"):
                membership_mask_points(xs, ys, builtin_candidates(2), eps)
