"""Reduction certificates and action outputs pinned to recorded values.

The gamma of siegel_reduce (and its iteration count) and the gammaJ of
jacobi_reduce were recorded for seeded points before the exact group core
was rewritten for speed, and the act_siegel outputs before its condition
guard and output checks were; any later refactor of the reduction path must
keep them bit-identical.  The reduced points themselves (X and Y, and Z
for the Jacobi points) were pinned, as float.hex, before the highest-point
step stopped running its C = 0 sub-steps through act_siegel.
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


#: per g: (upper triangle of the reduced X, of the reduced Y) as float.hex,
#: one per point of SIEGEL_PINNED, in its order
SIEGEL_REDUCED_PINNED = {
    1: [
        (("0x1.3709abe109240p-5",),
         ("0x1.9e6d95a821c97p+0",)),
        (("0x1.77e122b660f98p-2",),
         ("0x1.e0dfc90dd38efp-1",)),
        (("0x1.91f2724a8ac73p-2",),
         ("0x1.44c384eba43fbp+0",)),
        (("-0x1.b5bf2d349105cp-2",),
         ("0x1.2c694cf507c3ap+1",)),
        (("-0x1.eabca8cdd7870p-2",),
         ("0x1.1db1fa843e1fap+1",)),
        (("0x1.42a14facd01a6p-3",),
         ("0x1.1030fbd7bcbc6p+0",)),
        (("0x1.cb66f40b44ca0p-4",),
         ("0x1.0396abdc05405p+0",)),
        (("0x1.c7bdec2142b50p-3",),
         ("0x1.5fe4cae7b20b8p+0",)),
    ],
    2: [
        (("0x1.b081e0d044040p-2", "0x1.db0e5d44296f2p-2", "-0x1.b69e81fe04b9cp-2"),
         ("0x1.787b05b72a156p+0", "0x1.3dec3fa534d40p-4", "0x1.5afd7d7e8baa9p+1")),
        (("0x1.59e80e96289e0p-5", "0x1.a0f00aacc270ep-2", "0x1.5f0009a43bf30p-4"),
         ("0x1.14a41232b0aa3p+0", "0x1.c3bfdd4837fb4p-2", "0x1.da4abe4c9c294p+1")),
        (("0x1.556f94f4ddeb0p-3", "-0x1.d4f9f69130580p-7", "0x1.02e7bb541eed0p-2"),
         ("0x1.29197f54c6f0dp+0", "0x1.cd6fbcd1052b8p-3", "0x1.d22528d10a513p+0")),
        (("-0x1.de52174ec54c8p-3", "-0x1.a24b74eeb56d8p-3", "-0x1.ce8200f0d42d0p-4"),
         ("0x1.705684431c975p+0", "0x1.d90d00134c622p-2", "0x1.c1c1c25a56cc0p+2")),
        (("0x1.aa3e4474835c4p-2", "-0x1.3e33ddaed2200p-6", "0x1.8368e3a651948p-3"),
         ("0x1.063e983367f05p+0", "0x1.1cbb618f46ff0p-3", "0x1.634d95483504bp+0")),
        (("0x1.769b63b43be16p-2", "0x1.8e260a3dddddbp-4", "0x1.d39db9d186e7bp-3"),
         ("0x1.0eb29f77bd477p+0", "0x1.5deae4724f494p-2", "0x1.3708dc05bd585p+0")),
        (("-0x1.b1233460dea21p-5", "-0x1.9799006540094p-2", "0x1.b1722ca0fd5ecp-2"),
         ("0x1.fceef6477e9d4p+0", "0x1.69ab959b49e28p-2", "0x1.d43b07558c383p+1")),
        (("0x1.0b86728a452b0p-2", "-0x1.092f99996fad8p-3", "0x1.3b61655d4fffcp-2"),
         ("0x1.8e42c6da2a8fep+0", "0x1.6d3bcf3d186d4p-1", "0x1.00b426ed41441p+1")),
    ],
    3: [
        (("0x1.1a16153101d6ap-2", "0x1.c97b842b682fbp-2", "-0x1.08ca51309b457p-3",
          "0x1.3b71cf4cc010ep-3", "-0x1.423f2fe42cd74p-5", "0x1.82f937a65eb55p-2"),
         ("0x1.19488d7981c95p+0", "0x1.afc9e19d24ee4p-5", "-0x1.467ed36dbd844p-2",
          "0x1.15327c9f50aaep+1", "0x1.d811e4117e8e5p-1", "0x1.20d176bec71afp+1")),
        (("0x1.7960e4be9c400p-10", "-0x1.04b27dbcee670p-2", "-0x1.ac46f3989a22fp-2",
          "0x1.ec23d9dae6960p-2", "0x1.d5af95c43e6a0p-3", "0x1.94cc6c240399ep-2"),
         ("0x1.3747456732501p+1", "0x1.638547df35008p-4", "0x1.f2316f8cc30a8p-2",
          "0x1.396644fd804a8p+1", "0x1.a4c0811252594p-2", "0x1.449df28a51443p+1")),
        (("0x1.782e6161110b0p-2", "-0x1.99c25752d0f00p-2", "0x1.befbec233d0f0p-4",
          "-0x1.2cf5284a86290p-3", "-0x1.7462c97dac280p-4", "-0x1.b4a0cd2099a00p-6"),
         ("0x1.27a4856c09b4bp+0", "0x1.24f4bd8d8038bp-1", "0x1.0a1df5be410b8p-2",
          "0x1.d028530035898p+0", "0x1.1bbcd5f0b67e6p-1", "0x1.c2b81ab73189dp+2")),
        (("-0x1.e74ad30a5e25cp-2", "-0x1.a81b6083910d8p-2", "0x1.c1d36a3ee1cd0p-3",
          "0x1.9c4c8811a0e20p-4", "0x1.297e37b139dd0p-2", "-0x1.ede523e03b098p-3"),
         ("0x1.1f1b2313aefdep+0", "0x1.042b400d14d50p-2", "-0x1.4626a06c95ab0p-3",
          "0x1.4bebe1dffd8b3p+1", "0x1.4c2b4ae77e56cp-1", "0x1.56a7e0e7e5aa0p+1")),
        (("0x1.d8673436b5ba0p-6", "-0x1.0bdcbff05c950p-5", "0x1.026bca2c92190p-2",
          "-0x1.edf3f06eaf9b8p-2", "0x1.0e48e7edd18f4p-5", "-0x1.01c71244459a0p-5"),
         ("0x1.108af65be267ep+1", "0x1.dc6d78e6d1744p-1", "0x1.6b7556bcb6180p-1",
          "0x1.7d3de4f464b94p+1", "0x1.7bc723d857cecp+0", "0x1.9980e56807ffep+1")),
        (("-0x1.1fc5cd795e000p-5", "-0x1.6fc6495f413ecp-2", "0x1.acd9debbb8d40p-3",
          "-0x1.a0982f0fedbe0p-4", "-0x1.9d6d2636e42b8p-2", "0x1.fad811b6ea954p-3"),
         ("0x1.6b030d0cc8e82p+0", "0x1.cd556153edb27p-2", "0x1.516b87b10fd84p-2",
          "0x1.bc448ba88cf84p+0", "0x1.99fb51a48dd6cp-2", "0x1.f66bfc119c6c8p+0")),
        (("0x1.2704982da6895p-3", "-0x1.50b7307a57a61p-3", "0x1.3dfff763fcb16p-2",
          "0x1.37aebdc6887c6p-2", "0x1.42d27ec237d24p-2", "-0x1.7966e3af86740p-3"),
         ("0x1.4bf1f5f63431ap+0", "0x1.1e2481cebc494p-2", "0x1.b2a93c6c9a058p-3",
          "0x1.124401d633d62p+1", "0x1.02f8b101d240ep+0", "0x1.95a9681b962a3p+2")),
        (("0x1.88529d5d7ac80p-4", "0x1.022572ad0b680p-6", "-0x1.3e1229bb403fcp-2",
          "-0x1.dc843aa233340p-6", "-0x1.a94136163c080p-4", "-0x1.1588808c6a874p-2"),
         ("0x1.39d2b0f5b9bd8p+0", "0x1.a50b96a5665d0p-4", "-0x1.7c7a9285d14d8p-3",
          "0x1.aeb9fe2490ffcp+0", "0x1.aff3e700f3c60p-3", "0x1.d6ced7d969b08p+0")),
    ],
}

#: per point of JACOBI_PINNED: (upper triangle of the reduced X, of the
#: reduced Y, the reduced U row-major, the reduced V row-major) as float.hex
JACOBI_REDUCED_PINNED = [
    (("0x1.cbe51564342c0p-4", "-0x1.6f27c4c5e6048p-3", "0x1.e2f54c3fd7050p-4"),
     ("0x1.132f674b800d8p+0", "0x1.cb3cca18a48b0p-4", "0x1.43dd0c965a0c8p+0"),
     ("0x1.b44356b427babp-4", "0x1.a453280a5b3e8p-2", "0x1.695c6b6ce98f7p-1",
      "0x1.e99cecb9abb9ap-2"),
     ("0x1.84bf009c46f93p-1", "0x1.2883dc2482aa7p+0", "0x1.0e02a32a6453fp-1",
      "0x1.f563434eb1052p-2")),
    (("-0x1.8eb467a113830p-3", "-0x1.6fc356f000d08p-2", "0x1.fefac4e01b248p-2"),
     ("0x1.3a29cb41f7ba0p+0", "0x1.3ea1e64c76110p-4", "0x1.dae02215b34b6p+0"),
     ("-0x1.02241d6167422p-4", "0x1.7e17170cf8d55p-1", "-0x1.afffa68dd6d5ap-2",
      "0x1.003706d794dddp-1"),
     ("0x1.57c2ab673d39cp-1", "0x1.5cc4a63d82ccep-1", "0x1.3c21a001979b6p+0",
      "0x1.8851a503583afp+0")),
    (("-0x1.206a9764c63dap-2", "0x1.12b03f69d15c6p-2", "0x1.a75cbc1296f00p-9"),
     ("0x1.12d9c4bb0d741p+0", "0x1.d44de9bcd54b8p-3", "0x1.5560df6921bb4p+1"),
     ("0x1.83d2b96508e3bp-2", "0x1.156ca6f3a26efp+0", "0x1.299cf8e0e90acp+0",
      "0x1.dc4a3ebf8d5ecp-1"),
     ("0x1.a8dd6a4b66085p-1", "0x1.07866a79e2f72p+0", "0x1.23da7d7f88138p-1",
      "0x1.522c756f2cf99p+1")),
    (("0x1.25ddc389e6b3bp-5", "-0x1.0e34a622cd564p-2", "-0x1.bdf514aba6b60p-2"),
     ("0x1.b96ee49222054p+0", "0x1.388df2914507cp-1", "0x1.57836eb52cb10p+1"),
     ("0x1.9b2c4ad5e9eedp-6", "-0x1.0b22edd5dc6d0p-3", "0x1.aaddccc54d320p-1",
      "-0x1.ec7f620732988p-4"),
     ("0x1.461c8747d1bcfp+0", "0x1.e610e798973bep-1", "0x1.5e61c316f501dp+0",
      "0x1.0ce5eb2802905p+1")),
    (("-0x1.3ff99c37c92f0p-3", "-0x1.690a0c7c61900p-2", "-0x1.07b9cf2353610p-2"),
     ("0x1.4d0d27ad6de38p+0", "0x1.d3df37eb819b8p-2", "0x1.e53ae23cf7cb0p+0"),
     ("-0x1.06a083bef9c68p-4", "0x1.bdefa687c6b00p-6", "0x1.e96dd0ed0edd8p-2",
      "0x1.4604e06d88420p-9"),
     ("0x1.576b243c0423fp-1", "0x1.2644667fdad90p+0", "0x1.8ebe555f8c944p-2",
      "0x1.858a4790f65d8p-2")),
    (("0x1.85532079638ecp-2", "-0x1.22928591510c8p-4", "-0x1.fcc77bf708d9ap-2"),
     ("0x1.3bf660c4f5070p+0", "0x1.3b8b53ccf666ap-2", "0x1.53674791c33acp+0"),
     ("0x1.60d8552c2d958p-2", "0x1.2c9bbb1858f96p-1", "0x1.cd0a271e65e4ep-3",
      "0x1.a952c28517dafp-2"),
     ("0x1.5e36915dabda6p+0", "0x1.f41b1c8894d27p-1", "0x1.4fc4649f24f56p-2",
      "0x1.36abcbd116b71p+0")),
    (("0x1.722fc91a79e28p-2", "0x1.db01d272b6d00p-2", "-0x1.2baa2e122ca80p-2"),
     ("0x1.082e5a0146d5ap+0", "0x1.4de7005ea2de0p-5", "0x1.b5e4fffc22ff0p+0"),
     ("0x1.6aceec2254b0fp-1", "0x1.e892b498c075ep-1", "0x1.01e6acee9d4c4p-1",
      "0x1.5b5ce700eb5d8p-2"),
     ("0x1.a750680056a3fp-1", "0x1.5eb0de18d3e29p-1", "0x1.7927b02292659p-1",
      "0x1.23a42a6f3fc04p-2")),
    (("-0x1.2ebf2a715d644p-2", "-0x1.29853d5530360p-3", "-0x1.239d02b250048p-3"),
     ("0x1.8f44d2922190ep+0", "0x1.042cf8c419cb4p-2", "0x1.7b014986ad05cp+1"),
     ("0x1.2e86769a9b2c4p-3", "0x1.2326ef9b4cc3fp-2", "-0x1.3d92ba2d180b9p-4",
      "0x1.84f3dec7eb070p-2"),
     ("0x1.ef8ff8e2b1e22p-1", "0x1.78f7299a4a282p+0", "0x1.4f6ef813ea6cdp-2",
      "0x1.b47aeaeb3bcf9p+0")),
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


def _hex(m, upper=False):
    """Entries of m (the upper triangle when ``upper``) as float.hex."""
    vals = m[np.triu_indices(len(m))] if upper else m.ravel()
    return tuple(float(v).hex() for v in vals)


def test_reduced_points_pinned(certificates):
    siegel, jacobi = certificates
    got = {g: [(_hex(c.reduced.X, True), _hex(c.reduced.Y, True)) for c in certs]
           for g, certs in siegel.items()}
    assert got == SIEGEL_REDUCED_PINNED
    got = [(_hex(c.reduced.omega.X, True), _hex(c.reduced.omega.Y, True),
            _hex(c.reduced.U), _hex(c.reduced.V)) for c in jacobi]
    assert got == JACOBI_REDUCED_PINNED

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
