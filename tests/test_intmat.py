import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegeljacobi.intmat import (as_imat, complete_primitive, int_det,
                                 int_inv_unimodular, ieye)
from conftest import rand_unimodular


def test_det_known_values():
    assert int_det(as_imat([[2, 1], [1, 1]])) == 1
    assert int_det(as_imat([[1, 2, 3], [4, 5, 6], [7, 8, 10]])) == -3
    assert int_det(ieye(4)) == 1
    assert int_det(as_imat([[0, 1], [1, 0]])) == -1


def test_det_exact_beyond_float(rng):
    big = 10 ** 12
    m = as_imat([[big, big - 1], [big + 1, big]])
    assert int_det(m) == big * big - (big - 1) * (big + 1)


def test_unimodular_inverse(rng):
    for _ in range(50):
        g = int(rng.integers(1, 5))
        u = np.eye(g, dtype=int)
        for _ in range(6):
            if g > 1:
                i, j = rng.choice(g, 2, replace=False)
                u[:, j] += int(rng.integers(-3, 4)) * u[:, i]
        ui = int_inv_unimodular(as_imat(u))
        assert np.array_equal(as_imat(u) @ ui, ieye(g))


def test_inverse_rejects_non_unimodular():
    with pytest.raises(ValueError):
        int_inv_unimodular(as_imat([[2, 0], [0, 1]]))


def _adjugate_inverse(a):
    """The reference: the adjugate over np.delete minors, each by int_det."""
    a = np.asarray(a, dtype=object)
    n = a.shape[0]
    d = int_det(a)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular (det=%s)" % d)
    adj = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            adj[j, i] = (-1) ** (i + j) * int_det(minor)
    return adj * d if d == -1 else adj


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_inverse_agrees_with_adjugate_oracle(n, seed, data):
    u = as_imat(rand_unimodular(n, np.random.default_rng(seed), steps=8, span=3))
    if data.draw(st.booleans()):
        u[:, 0] = -u[:, 0]
    inv = int_inv_unimodular(u)
    assert all(type(v) is int for v in inv.ravel())
    assert np.array_equal(inv, _adjugate_inverse(u))
    assert np.array_equal(u @ inv, ieye(n))
    # a random small matrix: the same inverse, or the same rejection
    m = as_imat(np.reshape(data.draw(st.lists(st.integers(-2, 2), min_size=n * n,
                                              max_size=n * n)), (n, n)))
    if int_det(m) in (1, -1):
        assert np.array_equal(int_inv_unimodular(m), _adjugate_inverse(m))
    else:
        with pytest.raises(ValueError, match="not unimodular"):
            int_inv_unimodular(m)


def test_complete_primitive(rng):
    for vec in ([3, 5], [2, 3, 7], [0, 0, 1], [1], [-1], [6, 10, 15], [-4, 9]):
        u = complete_primitive(vec)
        assert int_det(u) in (1, -1)
        assert [int(x) for x in u[:, 0]] == list(vec)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        v = rng.integers(-9, 10, m)
        from math import gcd
        d = 0
        for x in v:
            d = gcd(d, int(x))
        if d != 1:
            continue
        u = complete_primitive(v)
        assert int_det(u) in (1, -1)
        assert [int(x) for x in u[:, 0]] == [int(x) for x in v]


def test_complete_primitive_rejects_imprimitive():
    with pytest.raises(ValueError):
        complete_primitive([2, 4])


def test_as_imat_rejects_fractions():
    with pytest.raises(ValueError):
        as_imat([[1.5, 0], [0, 1]])


def _one_row(*entries):
    """A 1 x n object matrix holding exactly the given objects."""
    out = np.empty((1, len(entries)), dtype=object)
    out[0, :] = entries
    return out


@pytest.mark.parametrize("bad", [True, np.bool_(True), 2.5, np.float64(2.5), np.nan,
                                 np.inf, -np.inf, "1", 1j])
def test_as_imat_rejects_and_names_entry(bad):
    with pytest.raises(ValueError, match=r"at \(0, 1\)"):
        as_imat(_one_row(1, bad))


@pytest.mark.parametrize("arr", [np.array([[True]]), np.array([[2.5]]),
                                 np.array([[np.nan]]), np.array([[np.inf]]),
                                 np.array([["1"]]), [[1, True]], [[1, 2], [3]]])
def test_as_imat_rejects_typed_arrays(arr):
    # inf used to raise OverflowError, which callers catching ValueError missed
    with pytest.raises(ValueError):
        as_imat(arr)


@pytest.mark.parametrize("data", [np.array([[1, -2], [3, 4]], dtype=np.int64),
                                  np.array([[1, 2], [3, 255]], dtype=np.uint8),
                                  _one_row(np.int64(-7), 2 ** 70, np.uint8(3), 4.0)])
def test_as_imat_gives_python_ints(data):
    out = as_imat(data)
    assert out.dtype == object and out.shape == np.shape(data)
    assert all(type(v) is int for v in out.ravel())
    assert [int(v) for v in np.ravel(data)] == list(out.ravel())
