"""Reduction certificates and action outputs pinned to recorded values.

The gamma of siegel_reduce (and its iteration count) and the gammaJ of
jacobi_reduce were recorded for seeded points before the exact group core
was rewritten for speed, and the act_siegel outputs before its condition
guard and output checks were; any later refactor of the reduction path must
keep them bit-identical.
"""

import numpy as np
import pytest

from siegeljacobi.group_core import SymplecticInt, act_siegel
from siegeljacobi.jacobi_domain import jacobi_reduce
from siegeljacobi.siegel import builtin_candidates, siegel_reduce
from conftest import rand_jacobi_point, rand_siegel_point

SEED = 20261018

#: per g: (gamma as a row-major 2g x 2g tuple, iterations), one per point, in
#: the order the points are drawn from SEED (g = 1, 2, 3, then Jacobi)
SIEGEL_PINNED = {
    1: [
        ((1, -1, -1, 2), 2),
        ((-1, 3, -1, 2), 2),
        ((0, 1, -1, 0), 1),
        ((1, 1, -1, 0), 2),
        ((1, 1, 0, 1), 1),
        ((0, 1, -1, -1), 1),
        ((0, 1, -1, 2), 1),
        ((1, 0, -1, 1), 2),
    ],
    2: [
        ((0, 0, -1, 1, 1, 1, -2, 0, 0, -1, 0, 0, 0, 0, 1, 0), 2),
        ((0, 0, 1, -1, -1, -1, 3, 0, -1, 0, 1, 2, 0, 0, 0, -1), 2),
        ((1, 0, -3, 1, 0, 1, 1, -1, -1, 0, 4, -1, 0, 0, 0, 1), 2),
        ((0, 1, -1, 0, 1, 2, 1, -1, 0, -1, -1, 1, 0, 0, 1, 0), 2),
        ((0, 0, 1, 1, -1, 1, 3, -2, -1, 0, 2, -1, 0, 0, 0, 1), 2),
        ((0, 0, -1, 0, 0, 0, 0, -1, 1, 0, 2, 0, 0, 1, 0, 1), 2),
        ((0, 1, 0, 0, 1, -1, -1, 0, 0, 0, 1, 1, 0, 0, 1, 0), 1),
        ((0, -1, 0, 1, 1, -1, 2, 1, 0, -1, -1, 0, 0, 0, 1, 0), 2),
    ],
    3: [
        ((0, -1, 0, -1, -2, -1, 0, 0, -1, 1, -1, 2, 1, 1, 0, 2, 3, 0, 0, -1, 0, 0, -3, -1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0), 2),
        ((-1, 1, 0, 0, 1, 1, -1, 1, 1, -2, 0, 1, -1, 0, 0, -1, -1, 2, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 1, 0, 0, 0, -1, -1, 0), 1),
        ((0, 0, 1, 0, 0, 1, 0, -1, 1, 1, 0, 1, 1, -1, 2, 1, -1, 2, 0, 0, 0, -1, 1, 1, 0, 0, 0, -1, -1, 0, 0, 0, 0, 1, 0, 0), 1),
        ((0, -1, 1, 2, 0, 0, -1, 0, -1, -2, 0, -2, 0, 0, -1, -1, -1, -1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1, -1, -1), 1),
        ((1, 0, 0, 1, 0, -1, -1, 0, -1, 0, 0, 2, 1, -1, 0, 1, 1, -1, 0, 0, 0, 1, 1, -1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1, 0), 1),
        ((-1, 1, 1, 0, 0, -1, -1, 0, 0, -1, 0, -1, -1, 1, 0, -1, 0, -1, 0, 0, 0, 0, 0, 1, 0, 0, 0, -1, -1, 0, 0, 0, 0, 0, 1, -1), 1),
        ((1, 0, 0, 0, 0, 0, -1, 0, -1, 0, 1, -1, 1, 1, 0, 0, -2, -1, 0, 0, 0, 1, -1, -1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1, 0), 1),
        ((0, 1, 0, 1, -2, 0, 0, 1, -1, 0, -2, 0, -1, -1, 0, 1, 1, -1, 0, 0, 0, -1, 1, 1, 0, 0, 0, 0, 0, -1, 0, 0, 0, -1, 0, 0), 1),
    ],
}

#: (g, h) = (2, 2): (M row-major, lambda, mu, kappa row-major)
JACOBI_PINNED = [
    ((0, 1, 2, 1, -1, 1, 0, -1, 0, 0, 1, 1, 0, 0, -1, 0),
     (0, -1, 0, 0), (0, 0, 0, 1), (1, 0, 1, 1)),
    ((0, 1, 0, -2, 1, -1, 0, 2, 0, 0, 1, 1, 0, 0, 1, 0),
     (0, 0, -1, -1), (-1, -2, 2, 1), (0, -3, 0, 0)),
    ((0, -1, 0, 1, -1, 0, 1, 0, 0, 0, 0, -1, -1, 0, 0, 0),
     (0, -1, 0, -1), (2, -2, -1, -1), (1, -2, -1, -1)),
    ((1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, -1),
     (-1, 0, 1, -2), (0, 3, -1, -1), (0, 7, 0, 0)),
    ((0, 1, 3, -2, -1, -1, 0, -1, 0, 0, -1, 1, 0, 0, -1, 0),
     (1, -1, 1, -1), (1, 0, 1, -1), (1, 1, 0, 0)),
    ((1, 0, -1, 0, -1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1),
     (-1, -1, 0, -3), (1, 0, 1, -1), (0, 0, 0, 0)),
    ((0, -1, -2, -2, -1, 1, -1, 0, 0, 0, -1, -1, 0, 0, -1, 0),
     (-2, -1, -2, 0), (0, 0, -1, -1), (3, 3, 0, 0)),
    ((1, -1, 0, 0, -1, 0, -2, -2, 0, 0, 0, -1, 0, 0, -1, -1),
     (0, 0, 0, 0), (-1, -2, 0, -1), (-3, -1, -1, -1)),
]


def _flat(a):
    return tuple(int(v) for v in np.asarray(a).ravel())


@pytest.fixture(scope="module")
def certificates():
    rng = np.random.default_rng(SEED)
    siegel = {g: [siegel_reduce(rand_siegel_point(g, rng)) for _ in range(8)]
              for g in (1, 2, 3)}
    jacobi = [jacobi_reduce(rand_jacobi_point(2, 2, rng)) for _ in range(8)]
    return siegel, jacobi


@pytest.mark.parametrize("g", [1, 2, 3])
def test_siegel_certificates_pinned(certificates, g):
    got = [(_flat(c.gamma.matrix), c.iterations) for c in certificates[0][g]]
    assert got == SIEGEL_PINNED[g]


def test_jacobi_certificates_pinned(certificates):
    got = [(_flat(c.gammaJ.m.matrix), _flat(c.gammaJ.heis.lam),
            _flat(c.gammaJ.heis.mu), _flat(c.gammaJ.heis.kappa))
           for c in certificates[1]]
    assert got == JACOBI_PINNED


ACT_SEED = 20261019

#: per g: the integer blocks of the translation and GL(g, Z) elements
ACT_S = {1: [[1]], 2: [[1, -1], [-1, 0]], 3: [[0, 1, -1], [1, 2, 0], [-1, 0, -1]]}
ACT_U = {1: [[-1]], 2: [[1, 1], [0, 1]], 3: [[1, 0, 1], [1, 1, 0], [0, 0, 1]]}

#: (g, element) -> (upper triangle of X, upper triangle of Y) as float.hex
ACT_SIEGEL_PINNED = {
    (1, "translation"): (
        ("0x1.0ff9bb3274b4fp+0",),
        ("0x1.90dc5a092e6fap+0",),
    ),
    (1, "gl_embed"): (
        ("0x1.ff37664e969dfp-5",),
        ("0x1.90dc5a092e6fap+0",),
    ),
    (1, "candidate"): (
        ("-0x1.a054a759ea5f0p-6",),
        ("0x1.4675381d91f06p-1",),
    ),
    (1, "inversion"): (
        ("-0x1.a054a759ea5f0p-6",),
        ("0x1.4675381d91f06p-1",),
    ),
    (1, "word"): (
        ("0x1.f2fd5ac530acfp-1",),
        ("0x1.4675381d91f06p-1",),
    ),
    (2, "translation"): (
        ("0x1.6a8c02196aecbp+0", "-0x1.cf2ba9d3c9332p-1", "-0x1.bac6de5589d65p-1"),
        ("0x1.1cb09db4f52a7p+0", "0x1.69b00b7207762p-4", "0x1.21c7e13d268e1p-1"),
    ),
    (2, "gl_embed"): (
        ("0x1.aa300865abb2bp-2", "0x1.05ec5a5f0ca63p-1", "-0x1.080c5b948cc68p-2"),
        ("0x1.1cb09db4f52a7p+0", "0x1.334b9e6c15a1dp+0", "0x1.daca8fc1c9604p+0"),
    ),
    (2, "candidate"): (
        ("-0x1.c2cbbf527e0eap-2", "0x1.383c594be514ep-5", "-0x1.90deb34f75c33p-2"),
        ("0x1.67d26737bc166p-2", "-0x1.eb1b19c2887e9p-4", "0x1.b2cea83314a2cp+0"),
    ),
    (2, "inversion"): (
        ("-0x1.2346e0a9216a2p-2", "-0x1.ab9e24801dca8p-4", "0x1.9d8e22b93cbd5p-1"),
        ("0x1.91c0ceccbe9adp-1", "-0x1.63115ef41e71ep-7", "0x1.08962cc24d4b0p-1"),
    ),
    (2, "word"): (
        ("0x1.bb691dc259bdap+0", "-0x1.e980f3a4a03b6p+0", "0x1.9d8e22b93cbd7p-1"),
        ("0x1.52b7c343566cbp+0", "-0x1.0e22723e1dc4cp-1", "0x1.08962cc24d4b0p-1"),
    ),
    (3, "translation"): (
        ("0x1.c512d5e1bd433p+0", "0x1.64d44bdadf991p+0", "-0x1.b5f265e814d8cp-2",
         "0x1.a2ae980cb5176p+0", "0x1.a6efc3c4bd8ccp-3", "-0x1.42cd8b42192c5p-1"),
        ("0x1.7671aa190d881p+3", "-0x1.71faaf1a74d08p+0", "0x1.f60e75c3e8cc2p+1",
         "0x1.51b0954085d92p+0", "0x1.d1f664d27a379p+0", "0x1.279e651f7b5afp+3"),
    ),
    (3, "gl_embed"): (
        ("0x1.18b502d218c66p+1", "0x1.e0b8f9e52c1d0p-6", "0x1.78a4405d97abdp+1",
         "-0x1.75459fcd2ba27p-2", "0x1.336488a6ee955p-1", "0x1.a4596ea653205p+1"),
        ("0x1.442910fa810f1p+3", "-0x1.0250cecf77bb0p-3", "0x1.fff4be4108680p+3",
         "0x1.51b0954085d92p+0", "0x1.7feed6e0159c4p-2", "0x1.cc8ba50d3ea49p+4"),
    ),
    (3, "candidate"): (
        ("-0x1.4f8b5a68d5a9ep-6", "-0x1.6943297fed472p-6", "-0x1.263edc185c332p-1",
         "0x1.5dff5ba6d4cddp-3", "-0x1.def8059014f04p+0", "-0x1.fc41a7d740ff6p-1"),
        ("0x1.829f8eb45ef7ap-4", "0x1.a780a63aef0bap-4", "-0x1.715fff606c4a4p-5",
         "0x1.a2979d0316f3ap-1", "0x1.cf72c3e0016fep-2", "0x1.d2b3ee59add9dp+1"),
    ),
    (3, "inversion"): (
        ("-0x1.64fb08d415f2bp-7", "0x1.95771615ecf1ep-4", "-0x1.d1f0d693219cap-6",
         "0x1.aa34f3bf212c8p-1", "-0x1.f70c0c2a1c9d0p-3", "0x1.1cbee245fcc59p-4"),
        ("0x1.745701d6bea25p-3", "0x1.7bd733521d968p-2", "-0x1.32f2816613effp-3",
         "0x1.8a95b8b2d46a1p+0", "-0x1.c8fa16ae5e623p-2", "0x1.0577344c90ae5p-2"),
    ),
    (3, "word"): (
        ("0x1.d917ec750ad6fp-4", "0x1.3aa7741f51b56p+0", "-0x1.1913b17eac52ap+0",
         "0x1.211d096cce3efp+1", "-0x1.2e6e8034ba066p-3", "-0x1.dc6823b740679p-1"),
        ("0x1.794a9b4f01f85p-1", "0x1.48f04d89e0266p-4", "-0x1.9ef074ff9aa6cp-2",
         "0x1.49a4c2b42ed31p-1", "-0x1.504d0d761de10p-5", "0x1.0577344c90ae9p-2"),
    ),
}


def _act_elements(g):
    """C = 0 (translation, GL embed) and C != 0 (candidate, inversion, word)."""
    cands = builtin_candidates(g).elements
    return {"translation": SymplecticInt.translation(ACT_S[g]),
            "gl_embed": SymplecticInt.gl_embed(ACT_U[g]),
            "candidate": cands[len(cands) // 2],
            "inversion": SymplecticInt.inversion(g),
            "word": (SymplecticInt.translation(ACT_S[g]) * SymplecticInt.inversion(g)
                     * SymplecticInt.gl_embed(ACT_U[g]))}


def test_act_siegel_outputs_pinned():
    rng = np.random.default_rng(ACT_SEED)
    got = {}
    for g in (1, 2, 3):
        p = rand_siegel_point(g, rng)
        iu = np.triu_indices(g)
        for name, m in _act_elements(g).items():
            q = act_siegel(m, p)
            assert np.array_equal(q.X, q.X.T) and np.array_equal(q.Y, q.Y.T)
            got[(g, name)] = (tuple(float(v).hex() for v in q.X[iu]),
                              tuple(float(v).hex() for v in q.Y[iu]))
    assert got == ACT_SIEGEL_PINNED
