"""Exact call counts of the expensive kernels on seeded inputs made here.

A count moves only when the work moves, so a regression shows without
timing anything.  Every imported name of a kernel is wrapped, and each
count is taken on a second run of the same inputs, after the first has
filled the process-wide caches (candidate sets, the identity transform).
A fall in a pin is a gain: lower it in the change that makes it.
"""

import sys

import numpy as np
import pytest

from siegeljacobi import intmat, minkowski, siegel
from siegeljacobi.geometry import laplacian_apply
from siegeljacobi.group_core import JacobiPoint, SiegelPoint
from siegeljacobi.jacobi_domain import jacobi_reduce
from siegeljacobi.siegel import siegel_reduce
from siegeljacobi.torus_spectral import FourierIndex, eigenvalue_E, eval_E_omega

SEED = 20261020

#: over the 80 reductions of reduction_inputs(); before UnimodularInt kept
#: its inverse, int_det ran 308 times: its own det check came on top of the
#: one in each int_inv_unimodular call.  158 while minkowski._column_step
#: also took the det of each step, which is unimodular by construction
INT_DET_CALLS = 150
INT_INV_UNIMODULAR_CALLS = 150
#: one per final siegel_membership; 384 while minkowski_reduce ran the batch
#: mask on its input and on each pass's result, as a stack of one
MEMBERSHIP_MASK_CALLS = 80


@pytest.fixture
def counted(monkeypatch):
    """counted(module, name) wraps that kernel under every name the package
    imported it by; returns the dict of call counts."""
    calls = {}

    def wrap(module, name):
        real = getattr(module, name)
        calls[name] = 0

        def counting(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("siegeljacobi")
                    and getattr(mod, name, None) is real):
                monkeypatch.setattr(mod, name, counting)
        if getattr(module, name) is real:
            monkeypatch.setattr(module, name, counting)
        return calls

    return wrap


def character_cases():
    """(index, Omega, z0) at (h, g) = (1, 2), (2, 2) and (1, 3)."""
    rng = np.random.default_rng(SEED)
    cases = []
    for h, g in ((1, 2), (2, 2), (1, 3)) * 4:
        a = rng.normal(size=(g, g))
        om = SiegelPoint(0.5 * (a + a.T), a @ a.T + 0.6 * np.eye(g))
        idx = FourierIndex(rng.integers(-2, 3, (h, g)), rng.integers(-2, 3, (h, g)))
        cases.append((idx, om, rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g))))
    return cases


def test_one_c_solve_per_index_and_omega(counted):
    # the 4d + 1 stencil points of the fiber Laplacian and the eigenvalue
    # share one (index, Omega), so C = (B - AX) Y^{-1} is solved once
    cases = character_cases()
    calls = counted(np.linalg, "solve")
    for idx, om, z0 in cases:
        val = laplacian_apply("omega", lambda z, idx=idx, om=om: eval_E_omega(idx, z, om),
                              JacobiPoint.from_z(om, z0))
        lam = eigenvalue_E(idx, om)
        assert abs(val / eval_E_omega(idx, z0, om) - lam) <= 1e-5 * max(1.0, abs(lam))
    assert calls["solve"] == len(cases)


def reduction_inputs():
    """20 points each for siegel_reduce at g = 1, 2, 3 and jacobi_reduce at
    (g, h) = (2, 2), Y scaled log-uniformly over [0.01, 1]."""
    rng = np.random.default_rng(SEED)
    points = []
    for g, h in ((1, 0), (2, 0), (3, 0), (2, 2)):
        for scale in np.exp(rng.uniform(np.log(0.01), 0.0, 20)):
            a, x = rng.normal(size=(g, g)), rng.normal(size=(g, g))
            p = SiegelPoint(0.5 * (x + x.T), scale * (a @ a.T + 0.3 * np.eye(g)))
            if h:
                p = JacobiPoint.from_z(p, rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g)))
            points.append(p)
    return points


def reduce_all(points):
    return [jacobi_reduce(p) if isinstance(p, JacobiPoint) else siegel_reduce(p)
            for p in points]


def test_exact_integer_kernels_per_reduction(counted):
    points = reduction_inputs()
    reduce_all(points)   # fills the caches
    counted(intmat, "int_inv_unimodular")
    calls = counted(intmat, "int_det")
    reduce_all(points)
    assert calls == {"int_inv_unimodular": INT_INV_UNIMODULAR_CALLS, "int_det": INT_DET_CALLS}


def test_the_reducer_never_runs_the_batch_mask(counted, monkeypatch):
    # minkowski_reduce tests one matrix term by term, so only the final
    # membership test of each reduction reaches membership_mask
    points = reduction_inputs()
    reduce_all(points)
    calls = counted(minkowski, "membership_mask")
    inside = []

    def reducer(y, real=minkowski.minkowski_reduce, **kw):
        before = calls["membership_mask"]
        cert = real(y, **kw)
        inside.append(calls["membership_mask"] - before)
        return cert

    monkeypatch.setattr(siegel, "minkowski_reduce", reducer)
    reduce_all(points)
    assert calls == {"membership_mask": MEMBERSHIP_MASK_CALLS}
    assert len(inside) > len(points) and not any(inside)
