"""Reduction certificates pinned to recorded values.

The gamma of siegel_reduce (and its iteration count) and the gammaJ of
jacobi_reduce were recorded for seeded points before the exact group core
was rewritten for speed; any later refactor of the reduction path must keep
them bit-identical.
"""

import numpy as np
import pytest

from siegeljacobi.jacobi_domain import jacobi_reduce
from siegeljacobi.siegel import siegel_reduce
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
