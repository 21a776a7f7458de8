"""JSON encoding of matrices, points and group elements.

One encoding is used everywhere:

* real matrix        {"rows": r, "cols": c, "data": [row-major numbers]}
* complex matrix     {"re": <matrix>, "im": <matrix>}
* symplectic element {"A": ..., "B": ..., "C": ..., "D": ...}
* Jacobi element     adds {"lambda": ..., "mu": ..., "kappa": ...}
* Siegel point       {"omega": <complex matrix>}
* Jacobi point       {"omega": <complex matrix>, "Z": <complex matrix>}
"""

from __future__ import annotations

import numpy as np

from .group_core import (HeisenbergInt, JacobiGroupElement, JacobiPoint,
                         SiegelPoint, SymplecticInt)


def encode_matrix(m) -> dict:
    m = np.asarray(m)
    if m.dtype == object:
        data = [int(v) for v in m.ravel()]
    else:
        data = [float(v) for v in np.asarray(m, dtype=float).ravel()]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def decode_matrix(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("%s: expected an object with rows/cols/data" % where)
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise ValueError("%s.%s missing" % (where, key))
    r, c, data = obj["rows"], obj["cols"], obj["data"]
    for key, v in (("rows", r), ("cols", c)):
        if type(v) is not int or v < 0:  # bool, float and str are refused
            raise ValueError("%s.%s: expected an integer >= 0, got %r" % (where, key, v))
    if not isinstance(data, list) or len(data) != r * c:
        raise ValueError("%s.data: expected a list of %d entries" % (where, r * c))
    try:
        m = np.asarray(data, dtype=float).reshape(r, c)
    except (TypeError, ValueError):
        raise ValueError("%s.data holds a non-number" % where) from None
    if not np.all(np.isfinite(m)):
        raise ValueError("%s.data holds a non-finite entry" % where)
    return m


def encode_complex(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": encode_matrix(m.real), "im": encode_matrix(m.imag)}


def decode_complex(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise ValueError("%s: expected {re, im}" % where)
    re = decode_matrix(obj["re"], where + ".re")
    im = decode_matrix(obj["im"], where + ".im")
    if re.shape != im.shape:
        raise ValueError("%s: re/im shapes differ" % where)
    return re + 1j * im


def encode_symplectic(m: SymplecticInt) -> dict:
    return {name: encode_matrix(getattr(m, name)) for name in "ABCD"}


def decode_symplectic(obj, where: str = "gamma") -> SymplecticInt:
    for name in "ABCD":
        if not isinstance(obj, dict) or name not in obj:
            raise ValueError("%s.%s missing" % (where, name))
    blocks = [decode_matrix(obj[name], "%s.%s" % (where, name)) for name in "ABCD"]
    return SymplecticInt(*blocks)


def encode_jacobi_element(x: JacobiGroupElement) -> dict:
    out = encode_symplectic(x.m)
    out["lambda"] = encode_matrix(x.heis.lam)
    out["mu"] = encode_matrix(x.heis.mu)
    out["kappa"] = encode_matrix(x.heis.kappa)
    return out


def decode_jacobi_element(obj, where: str = "gammaJ") -> JacobiGroupElement:
    m = decode_symplectic(obj, where)
    for name in ("lambda", "mu", "kappa"):
        if name not in obj:
            raise ValueError("%s.%s missing" % (where, name))
    heis = HeisenbergInt(
        decode_matrix(obj["lambda"], where + ".lambda"),
        decode_matrix(obj["mu"], where + ".mu"),
        decode_matrix(obj["kappa"], where + ".kappa"),
    )
    return JacobiGroupElement(m, heis)


def encode_siegel_point(p: SiegelPoint) -> dict:
    return {"omega": encode_complex(p.omega)}


def decode_siegel_point(obj, where: str = "point") -> SiegelPoint:
    if not isinstance(obj, dict) or "omega" not in obj:
        raise ValueError("%s.omega missing" % where)
    return SiegelPoint.from_omega(decode_complex(obj["omega"], where + ".omega"))


def encode_jacobi_point(p: JacobiPoint) -> dict:
    return {"omega": encode_complex(p.omega.omega), "Z": encode_complex(p.Z)}


def decode_jacobi_point(obj, where: str = "point") -> JacobiPoint:
    if not isinstance(obj, dict) or "omega" not in obj:
        raise ValueError("%s.omega missing" % where)
    if "Z" not in obj:
        raise ValueError("%s.Z missing" % where)
    omega = SiegelPoint.from_omega(decode_complex(obj["omega"], where + ".omega"))
    return JacobiPoint.from_z(omega, decode_complex(obj["Z"], where + ".Z"))
