"""Exact integer matrix helpers.

Matrices are numpy arrays with dtype=object holding Python ints, so every
product, determinant and inverse below is exact (Python ints never overflow).
All functions return fresh arrays; nothing is mutated in place.  as_imat coerces
in one pass over ``tolist()``, so numpy scalars arrive as Python values.
"""

from __future__ import annotations

from math import gcd, isfinite

import numpy as np


def as_imat(data) -> np.ndarray:
    """Coerce ``data`` to a 2-d object array of Python ints.

    Float entries are accepted only when they are finite and exactly integral;
    bools (also inside an int list) and every other type raise ValueError.
    """
    arr = np.array(data, dtype=object)  # a copy, also of an object array
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError("expected a matrix, got ndim=%d" % arr.ndim)
    for i, row in enumerate(arr.tolist()):
        for j, v in enumerate(row):
            if type(v) is int:
                continue
            if isinstance(v, (bool, np.bool_)):
                raise ValueError("boolean entry in integer matrix at (%d, %d)" % (i, j))
            if isinstance(v, (float, np.floating)) and not isfinite(v):
                raise ValueError("non-finite entry %r at (%d, %d)" % (v, i, j))
            if not isinstance(v, (int, np.integer, float, np.floating)) or v != round(v):
                raise ValueError("non-integer entry %r at (%d, %d)" % (v, i, j))
            arr[i, j] = int(v)
    return arr


def ieye(n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=object)
    for i in range(n):
        out[i, i] = 1
    return out


def izeros(m: int, n: int) -> np.ndarray:
    out = np.empty((m, n), dtype=object)
    out[:] = 0
    return out


def int_det(a: np.ndarray) -> int:
    """Exact determinant by fraction-free Bareiss elimination on list rows."""
    a = np.asarray(a, dtype=object)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return 1
    rows = a.tolist()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        top = rows[k]
        for row in rows[k + 1:]:
            for j in range(k + 1, n):
                row[j] = (row[j] * top[k] - row[k] * top[j]) // prev
        prev = top[k]
    return sign * int(rows[n - 1][n - 1])


def int_inv_unimodular(a: np.ndarray) -> np.ndarray:
    """Exact inverse of a matrix with determinant d = +-1: d times the
    adjugate, over Python-int lists; cofactors in closed form up to 3 x 3,
    and d up to 2 x 2."""
    a = np.asarray(a, dtype=object)
    n, r = a.shape[0], a.tolist()
    def cofactor(j, i):  # of entry (j, i), its sign included
        if n == 3:  # cyclic indices carry the sign
            j1, j2, i1, i2 = (j + 1) % 3, (j + 2) % 3, (i + 1) % 3, (i + 2) % 3
            return r[j1][i1] * r[j2][i2] - r[j1][i2] * r[j2][i1]
        return (-1) ** (i + j) * int_det([row[:i] + row[i + 1:] for row in r[:j] + r[j + 1:]])
    if a.shape in ((1, 1), (2, 2)):
        d = int(r[0][0] if n == 1 else r[0][0] * r[1][1] - r[0][1] * r[1][0])
        inv = [[d]] if n == 1 else [[d * r[1][1], -d * r[0][1]], [-d * r[1][0], d * r[0][0]]]
    else:
        d = int_det(a)
        inv = [[d * cofactor(j, i) for j in range(n)] for i in range(n)]
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular (det=%s)" % d)
    return np.array(inv, dtype=object)


def complete_primitive(v) -> np.ndarray:
    """Extend a primitive integer vector to a unimodular matrix.

    Returns U with det(U) = +-1 whose first column equals ``v``.  Requires
    gcd(v) = 1.  Works by reducing v to e_1 with 2x2 elementary steps and
    accumulating the inverse word.
    """
    v = [int(x) for x in np.asarray(v).ravel()]
    m = len(v)
    if m == 0:
        raise ValueError("empty vector")
    g = 0
    for x in v:
        g = gcd(g, x)
    if g != 1:
        raise ValueError("vector is not primitive (gcd=%d)" % g)
    w = list(v)
    uinv = ieye(m)
    for i in range(1, m):
        if w[i] == 0:
            continue
        # xgcd step on rows 0 and i: maps (w0, wi) -> (g, 0)
        g2, s, t = _xgcd(w[0], w[i])
        p, q = w[0] // g2, w[i] // g2
        # row op E = [[s, t], [-q, p]] on (0, i); accumulate E^{-1} = [[p, -t], [q, s]]
        col0 = uinv[:, 0] * p + uinv[:, i] * q
        coli = uinv[:, 0] * (-t) + uinv[:, i] * s
        uinv[:, 0], uinv[:, i] = col0, coli
        w[0], w[i] = g2, 0
    if w[0] == -1:
        uinv[:, 0] = -uinv[:, 0]
        w[0] = 1
    if w[0] != 1 or any(int(uinv[i, 0]) != v[i] for i in range(m)):
        raise ValueError("completion of %r lost its first column" % (v,))
    return uinv


def _xgcd(a: int, b: int):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def to_float(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=float)
