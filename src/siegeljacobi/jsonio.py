"""JSON encoding of matrices, points and group elements, one encoding
everywhere (README "CLI")."""

from __future__ import annotations

import numpy as np

from .group_core import JacobiGroupElement, JacobiPoint, SiegelPoint, SymplecticInt


def encode_matrix(m) -> dict:
    m = np.asarray(m)
    if m.dtype == object:
        data = [int(v) for v in m.ravel()]
    else:
        data = [float(v) for v in np.asarray(m, dtype=float).ravel()]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def get_field(obj, key: str, where: str):
    """obj[key] from a decoded JSON object; ``where`` names obj in errors."""
    if not isinstance(obj, dict):
        raise ValueError("%s: expected an object, got %s" % (where, type(obj).__name__))
    if key not in obj:
        raise ValueError("%s.%s missing" % (where, key))
    return obj[key]


def decode_matrix(obj, where: str = "matrix") -> np.ndarray:
    r, c, data = (get_field(obj, key, where) for key in ("rows", "cols", "data"))
    for key, v in (("rows", r), ("cols", c)):
        if type(v) is not int or v < 0:  # bool, float and str are refused
            raise ValueError("%s.%s: expected an integer >= 0, got %r" % (where, key, v))
    if not isinstance(data, list) or len(data) != r * c:
        raise ValueError("%s.data: expected a list of %d entries" % (where, r * c))
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in data):
        raise ValueError("%s.data holds a non-number" % where)
    try:
        m = np.array(data, dtype=float).reshape(r, c)
    except OverflowError:  # an integer beyond the float range
        m = np.full((r, c), np.inf)
    if not np.all(np.isfinite(m)):
        raise ValueError("%s.data holds a non-finite entry" % where)
    return m


def encode_complex(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": encode_matrix(m.real), "im": encode_matrix(m.imag)}


def decode_complex(obj, where: str = "matrix") -> np.ndarray:
    re = decode_matrix(get_field(obj, "re", where), where + ".re")
    im = decode_matrix(get_field(obj, "im", where), where + ".im")
    if re.shape != im.shape:
        raise ValueError("%s: re/im shapes differ" % where)
    return re + 1j * im


def encode_symplectic(m: SymplecticInt) -> dict:
    return {name: encode_matrix(getattr(m, name)) for name in "ABCD"}


def decode_symplectic(obj, where: str = "gamma") -> SymplecticInt:
    return SymplecticInt(*(decode_matrix(get_field(obj, name, where), "%s.%s" % (where, name))
                           for name in "ABCD"))


def encode_jacobi_element(x: JacobiGroupElement) -> dict:
    out = encode_symplectic(x.m)
    out["lambda"] = encode_matrix(x.heis.lam)
    out["mu"] = encode_matrix(x.heis.mu)
    out["kappa"] = encode_matrix(x.heis.kappa)
    return out


def encode_siegel_point(p: SiegelPoint) -> dict:
    return {"omega": encode_complex(p.omega)}


def decode_siegel_point(obj, where: str = "point") -> SiegelPoint:
    return SiegelPoint.from_omega(decode_complex(get_field(obj, "omega", where),
                                                 where + ".omega"))


def encode_jacobi_point(p: JacobiPoint) -> dict:
    return {"omega": encode_complex(p.omega.omega), "Z": encode_complex(p.Z)}


def decode_jacobi_point(obj, where: str = "point") -> JacobiPoint:
    omega = decode_siegel_point(obj, where)
    return JacobiPoint.from_z(omega, decode_complex(get_field(obj, "Z", where), where + ".Z"))
