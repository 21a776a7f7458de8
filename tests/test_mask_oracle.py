"""The staged membership mask equals one pass of every test, bit for bit.

membership_mask_points rejects on the single-monomial rows first and runs
the box, Minkowski and determinant tests only on the points that pass;
membership_mask_oracle (conftest) runs every test on every point.  Each
case is checked at eps and at -eps, the strict interior.
"""

import numpy as np
import pytest

from siegeljacobi import geometry, minkowski
from siegeljacobi.minkowski import DEFAULT_EPS, _column_tables, _form_features
from siegeljacobi.siegel import (CandidateSet, builtin_candidates, load_candidates,
                                 membership_mask_points, siegel_reduce)
from conftest import (gottschling_surface_points, membership_mask_oracle,
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
