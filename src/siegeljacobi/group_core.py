"""Exact group elements and their actions on the Siegel and Siegel-Jacobi spaces.

Group elements (unimodular, symplectic, Heisenberg, Jacobi) carry exact
Python-int entries, and points float matrices in split real form,
Omega = X + iY and Z = U + iV.  Each value has one checked constructor, the
public one, and one unchecked private _of builder for what holds its
invariant by construction: group-law results, built-in forms, a point's
checked Y.  The README ("Exact group cores") says where each check runs and
how the actions are guarded.  Everything here is a pure function on
immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isfinite
from operator import mul

import numpy as np

from .intmat import as_imat, ieye, int_inv_unimodular, izeros, to_float

#: symmetry drift allowed when re-symmetrizing the result of a group action
EPS_SYM = 1e-9

#: condition-number ceiling for C*Omega + D before the action is refused
COND_LIMIT = 1e12


class NumericError(RuntimeError):
    """A computation failed in floating point on valid input (sjk exit 3)."""


class IllConditionedActionError(NumericError):
    """Raised when C*Omega + D is numerically too close to singular."""


def _lapack(fn, what: str, *args, **kw):
    """``fn(*args, **kw)`` for a numpy.linalg ``fn``, whose LinAlgError (an exactly
    zero LU pivot, possible on a Y Cholesky accepted) is a NumericError."""
    try:
        return fn(*args, **kw)
    except np.linalg.LinAlgError as exc:
        raise NumericError("%s of %s: %s" % (fn.__name__, what, exc)) from None


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

def _check_symmetric(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("%s must be square" % what)
    if not np.abs(m).max(initial=0.0) < 2.0 ** 1023:  # then m + t(m), m - t(m) are finite
        raise ValueError("%s %s" % (what, "overflows when symmetrized" if np.isfinite(m).all()
                                    else "has a non-finite entry"))
    drift = np.abs(m - m.T).max() if m.size else 0.0
    if drift > EPS_SYM:
        raise ValueError("%s not symmetric (drift %.3g > %.3g)" % (what, drift, EPS_SYM))
    return 0.5 * (m + m.T)


def _check_posdef(m: np.ndarray, what: str) -> None:
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError("%s is not positive definite" % what) from None


def _check_pd(m, what: str) -> np.ndarray:
    """``m`` symmetrized, after checking it symmetric and positive definite."""
    m = _check_symmetric(m, what)
    _check_posdef(m, what)
    return m


def _check_pair(u, v, what: str, dtype=float):
    """``u``, ``v`` as ``dtype`` arrays, checked to be h x g matrices of one
    shape, and finite when float."""
    u, v = np.asarray(u, dtype=dtype), np.asarray(v, dtype=dtype)
    if u.shape != v.shape or u.ndim != 2:
        raise ValueError("%s must be equal-shape h x g matrices" % what)
    # math.isfinite over lists: a quarter of np.isfinite's cost on a small pair
    if dtype is float and not all(map(isfinite, u.ravel().tolist() + v.ravel().tolist())):
        raise ValueError("%s has a non-finite entry" % what)
    return u, v


@dataclass(frozen=True)
class PosDefMatrix:
    """Real symmetric positive-definite matrix (a point of the cone P_g)."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _check_pd(self.entries, "PosDefMatrix"))

    @classmethod
    def _of(cls, m: np.ndarray) -> "PosDefMatrix":
        """Matrix over m, already checked (a SiegelPoint's Y); not copied."""
        el = object.__new__(cls)
        el.__dict__["entries"] = m
        return el


def _complex_parts(z):
    """Real and imaginary parts of a complex matrix, as new arrays; a scalar is 1 x 1."""
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:
        z = z.reshape(1, 1)
    return z.real.copy(), z.imag.copy()


def as_pd_array(y) -> np.ndarray:
    """Accept a PosDefMatrix or a raw array; return the validated float array."""
    if isinstance(y, PosDefMatrix):
        return y.entries
    return PosDefMatrix(np.asarray(y, dtype=float)).entries


@dataclass(frozen=True)
class SiegelPoint:
    """Point Omega = X + iY of the Siegel upper half-space."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        x = _check_symmetric(self.X, "X")
        y = _check_symmetric(self.Y, "Y")
        if x.shape != y.shape:
            raise ValueError("X and Y shapes differ")
        _check_posdef(y, "Im(Omega)")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)

    @classmethod
    def from_omega(cls, omega) -> "SiegelPoint":
        return cls(*_complex_parts(omega))

    @classmethod
    def _of(cls, x: np.ndarray, y: np.ndarray) -> "SiegelPoint":
        """Point over x, y, exactly symmetric and checked already; unchecked."""
        p = object.__new__(cls)
        p.__dict__.update(X=x, Y=y)
        return p

    @property
    def omega(self) -> np.ndarray:
        return self.X + 1j * self.Y

    @property
    def g(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class JacobiPoint:
    """Point (Omega, Z) of the Siegel-Jacobi space, Z = U + iV in C^(h,g)."""

    omega: SiegelPoint
    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        u, v = _check_pair(self.U, self.V, "U and V")
        if u.shape[1] != self.omega.g:
            raise ValueError("Z has %d columns, Omega is %d x %d"
                             % (u.shape[1], self.omega.g, self.omega.g))
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "V", v)

    @classmethod
    def from_z(cls, omega: SiegelPoint, z) -> "JacobiPoint":
        return cls(omega, *_complex_parts(z))

    @property
    def Z(self) -> np.ndarray:
        return self.U + 1j * self.V

    @property
    def g(self) -> int:
        return self.omega.g

    @property
    def h(self) -> int:
        return self.U.shape[0]


# ---------------------------------------------------------------------------
# unimodular and symplectic matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnimodularInt:
    """Element of GL(g, Z) and its exact inverse; the inverse checks |det| = 1."""

    entries: np.ndarray

    def __post_init__(self):
        m = as_imat(self.entries)
        self.__dict__.update(entries=m, inverse_entries=int_inv_unimodular(m))


def j_matrix(g: int) -> np.ndarray:
    """The standard alternating form J_g as an exact integer matrix."""
    j = izeros(2 * g, 2 * g)
    for i in range(g):
        j[i, g + i] = 1
        j[g + i, i] = -1
    return j


def symplectic_check(m) -> bool:
    """Exact test of the defining relation t(M) J M = J, in Python ints.

    ``m`` is a SymplecticInt, read as built, or a matrix, which as_imat coerces.
    Entry (i, j) of t(M) J M is sum_k M_ki M_(g+k)j - M_(g+k)i M_kj; it is
    antisymmetric for every M, so only the entries i < j are compared.
    """
    m = m._matrix if isinstance(m, SymplecticInt) else as_imat(m)
    n = m.shape[0]
    if m.shape[1] != n or n % 2 != 0 or n == 0:
        raise ValueError("not 2gx2g")
    g = n // 2
    top, bot = m[:g].T.tolist(), m[g:].T.tolist()  # column halves
    for i in range(n):
        for j in range(i + 1, n):
            if (sum(map(mul, top[i], bot[j])) - sum(map(mul, bot[i], top[j]))
                    != (j == i + g)):
                return False
    return True


def _join(a, b, c, d) -> np.ndarray:
    """The 2g x 2g matrix (a, b; c, d) of four g x g blocks."""
    # not np.block: 15-18 us a matrix, nested concatenate 3-6 us (2-core Xeon)
    return np.concatenate([np.concatenate([a, b], axis=1), np.concatenate([c, d], axis=1)])


@lru_cache(maxsize=8)
def _identity_rows(g: int) -> list:
    """ieye(2g) as nested lists of Python ints, for is_identity; never mutated."""
    return ieye(2 * g).tolist()


@dataclass(frozen=True)
class SymplecticInt:
    """Element of Sp(g, Z) stored as exact integer blocks (A, B; C, D)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        blocks = [np.asarray(b, dtype=object) for b in (self.A, self.B, self.C, self.D)]
        shape = blocks[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or any(b.shape != shape for b in blocks):
            raise ValueError("blocks must all be g x g")
        self.__dict__.update(SymplecticInt._of(as_imat(_join(*blocks))).__dict__)
        if not symplectic_check(self):
            raise ValueError("blocks do not satisfy the symplectic relation")

    @classmethod
    def _of(cls, m: np.ndarray) -> "SymplecticInt":
        """Element over m: 2g x 2g Python ints, symplectic by construction; unchecked."""
        g, el = len(m) // 2, object.__new__(cls)
        if g == 0:
            raise ValueError("not 2gx2g")
        # the blocks are views of _matrix, which products reuse
        el.__dict__.update(A=m[:g, :g], B=m[:g, g:], C=m[g:, :g], D=m[g:, g:], _matrix=m)
        return el

    @property
    def g(self) -> int:
        return self.A.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """(A, B; C, D) as a new 2g x 2g object array."""
        return self._matrix.copy()

    @classmethod
    def identity(cls, g: int) -> "SymplecticInt":
        return cls._of(ieye(2 * g))

    @classmethod
    def inversion(cls, g: int) -> "SymplecticInt":
        """The full inversion J_g: Omega -> -Omega^{-1}."""
        return cls._of(j_matrix(g))

    @classmethod
    def translation(cls, s) -> "SymplecticInt":
        """Translation block (I, S; 0, I): Omega -> Omega + S, S = t(S) integer."""
        s = as_imat(s)
        if not np.array_equal(s, s.T):
            raise ValueError("translation block must be symmetric")
        return cls._parabolic_of(None, s)

    @classmethod
    def gl_embed(cls, u) -> "SymplecticInt":
        """Embed U in GL(g, Z) as (t(U), 0; 0, U^{-1}): Omega -> t(U) Omega U."""
        return cls._parabolic_of(UnimodularInt(u), None)

    @classmethod
    def _parabolic_of(cls, u, s) -> "SymplecticInt":
        """The C = 0 element translation(s) * gl_embed(u) = (t(u), s u^{-1};
        0, u^{-1}): Omega -> t(u) Omega u + s.  u is a UnimodularInt, whose
        stored inverse is read, and s symmetric with finite integral
        entries, each made an exact Python int; None stands for I and for 0.
        Not coerced or checked."""
        g = len(u.entries if u is not None else s)
        m = izeros(2 * g, 2 * g)
        uinv = ieye(g) if u is None else u.inverse_entries
        m[:g, :g] = uinv if u is None else u.entries.T
        m[g:, g:] = uinv
        if s is not None:  # exact ints at any scale
            s = np.array([[int(v) for v in row] for row in s.tolist()], dtype=object)
            m[:g, g:] = s if u is None else s @ uinv
        return cls._of(m)

    @cached_property
    def float_blocks(self):
        """(A, B, C, D) as float arrays, converted once per element."""
        return tuple(to_float(b) for b in (self.A, self.B, self.C, self.D))

    @cached_property
    def cond_bounded(self) -> bool:
        """Whether C = 0 and |D|_F |A|_F <= COND_LIMIT / 2, in Python ints;
        the factor 2 keeps clear of the limit, where SVD rounding decides."""
        if self.C.any():
            return False
        fro_sq = sum(v * v for v in self.A.flat) * sum(v * v for v in self.D.flat)
        return fro_sq <= (COND_LIMIT / 2) ** 2

    def __mul__(self, other: "SymplecticInt") -> "SymplecticInt":
        return SymplecticInt._of(self._matrix @ other._matrix)

    def __neg__(self) -> "SymplecticInt":
        return SymplecticInt._of(-self._matrix)

    def inverse(self) -> "SymplecticInt":
        # block formula M^{-1} = J^{-1} t(M) J, exact
        return SymplecticInt._of(_join(self.D.T, -self.B.T, -self.C.T, self.A.T))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymplecticInt):
            return NotImplemented
        return np.array_equal(self._matrix, other._matrix)

    def is_identity(self) -> bool:
        return self._matrix.tolist() == _identity_rows(self.g)


# ---------------------------------------------------------------------------
# Heisenberg and Jacobi group elements
# ---------------------------------------------------------------------------

def kappa_fix(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Smallest-support integer kappa making (lam, mu; kappa) a group element.

    kappa + mu t(lam) must be symmetric, i.e. kappa - t(kappa) must equal
    lam t(mu) - mu t(lam).  The strictly upper-triangular part of that
    antisymmetric matrix does it; for h = 1 this is always 0.
    """
    anti = lam @ mu.T - mu @ lam.T
    return np.triu(anti, 1)


def _lam_mu(lam, mu):
    """lam and mu coerced to Python-int matrices, checked to have one shape."""
    lam, mu = as_imat(lam), as_imat(mu)
    if lam.shape != mu.shape:
        raise ValueError("lambda and mu shapes differ")
    return lam, mu


@dataclass(frozen=True)
class HeisenbergInt:
    """Integer Heisenberg element (lambda, mu; kappa), lambda/mu h x g."""

    lam: np.ndarray
    mu: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        lam, mu = _lam_mu(self.lam, self.mu)
        kappa = as_imat(self.kappa)
        h = lam.shape[0]
        if kappa.shape != (h, h):
            raise ValueError("kappa must be h x h")
        sym = kappa + mu @ lam.T
        if not np.array_equal(sym, sym.T):
            raise ValueError("kappa + mu t(lambda) is not symmetric")
        self.__dict__.update(lam=lam, mu=mu, kappa=kappa)

    @classmethod
    def _of(cls, lam: np.ndarray, mu: np.ndarray, kappa: np.ndarray) -> "HeisenbergInt":
        """Element over Python-int matrices with kappa + mu t(lam) symmetric
        by construction; unchecked."""
        el = object.__new__(cls)
        el.__dict__.update(lam=lam, mu=mu, kappa=kappa)
        return el

    @classmethod
    def identity(cls, g: int, h: int) -> "HeisenbergInt":
        return cls._of(izeros(h, g), izeros(h, g), izeros(h, h))

    @classmethod
    def from_lam_mu(cls, lam, mu) -> "HeisenbergInt":
        """Build an element with the canonical kappa, kappa_fix(lam, mu),
        which makes kappa + mu t(lam) symmetric."""
        lam, mu = _lam_mu(lam, mu)
        return cls._of(lam, mu, kappa_fix(lam, mu))

    @property
    def h(self) -> int:
        return self.lam.shape[0]

    @property
    def g(self) -> int:
        return self.lam.shape[1]

    @cached_property
    def float_parts(self):
        """(lam, mu) as float arrays, converted once per element."""
        return to_float(self.lam), to_float(self.mu)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeisenbergInt):
            return NotImplemented
        return (np.array_equal(self.lam, other.lam)
                and np.array_equal(self.mu, other.mu)
                and np.array_equal(self.kappa, other.kappa))


@dataclass(frozen=True)
class JacobiGroupElement:
    """Element (M, (lambda, mu; kappa)) of the discrete Jacobi group."""

    m: SymplecticInt
    heis: HeisenbergInt

    def __post_init__(self):
        if self.m.g != self.heis.g:
            raise ValueError("symplectic and Heisenberg parts disagree on g")

    @classmethod
    def identity(cls, g: int, h: int) -> "JacobiGroupElement":
        return cls(SymplecticInt.identity(g), HeisenbergInt.identity(g, h))

    @property
    def g(self) -> int:
        return self.m.g

    @property
    def h(self) -> int:
        return self.heis.h

    def inverse(self) -> "JacobiGroupElement":
        minv = self.m.inverse()
        lam_t, mu_t = _pair_times_m(self.heis.lam, self.heis.mu, minv)
        kap = -self.heis.kappa + lam_t @ mu_t.T - mu_t @ lam_t.T
        return JacobiGroupElement(minv, HeisenbergInt._of(-lam_t, -mu_t, kap))

    def __eq__(self, other) -> bool:
        if not isinstance(other, JacobiGroupElement):
            return NotImplemented
        return self.m == other.m and self.heis == other.heis


def _pair_times_m(lam: np.ndarray, mu: np.ndarray, m: SymplecticInt):
    """Right action (lambda, mu) M of a symplectic matrix on a Heisenberg pair."""
    return lam @ m.A + mu @ m.C, lam @ m.B + mu @ m.D


def jacobi_mul(x: JacobiGroupElement, y: JacobiGroupElement) -> JacobiGroupElement:
    """Semidirect-product law (M, (l, m; k))(M', (l', m'; k')) =
    (M M', (l~ + l', m~ + m'; k + k' + l~ t(m') - m~ t(l'))) with
    (l~, m~) = (l, m) M'; at M' = I this is the Heisenberg law."""
    if x.g != y.g or x.h != y.h:
        raise ValueError("shape mismatch")
    lam_t, mu_t = _pair_times_m(x.heis.lam, x.heis.mu, y.m)
    heis = HeisenbergInt._of(
        lam_t + y.heis.lam,
        mu_t + y.heis.mu,
        x.heis.kappa + y.heis.kappa + lam_t @ y.heis.mu.T - mu_t @ y.heis.lam.T,
    )
    return JacobiGroupElement(x.m * y.m, heis)


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

def _blocks_float(m):
    if isinstance(m, SymplecticInt):
        return m.float_blocks
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n or n % 2 != 0:
        raise ValueError("not 2gx2g")
    g = n // 2
    return m[:g, :g], m[:g, g:], m[g:, :g], m[g:, g:]


def act_siegel(m, p: SiegelPoint) -> SiegelPoint:
    """Moebius action Omega -> (A Omega + B)(C Omega + D)^{-1}, guarded as
    README "Exact group cores" says: a cond_bounded element acts as the
    congruence (A Omega + B) t(A), every other one through an SVD-checked
    solve whose result must be symmetric to EPS_SYM."""
    a, b, c, d = _blocks_float(m)
    omega = p.omega
    if isinstance(m, SymplecticInt) and m.cond_bounded:
        res = (a @ omega + b) @ a.T
    else:
        k = c @ omega + d
        s = _lapack(np.linalg.svd, "C Omega + D", k, compute_uv=False)
        if not (s[-1] > 0 and s[0] / s[-1] <= COND_LIMIT):
            raise IllConditionedActionError("ill-conditioned action")
        res = _lapack(np.linalg.solve, "C Omega + D", k.T, (a @ omega + b).T).T
        drift = np.max(np.abs(res - res.T))
        if drift > EPS_SYM * max(1.0, np.max(np.abs(res))):
            raise IllConditionedActionError(
                "action result lost symmetry (drift %.3g)" % drift)
    res = 0.5 * (res + res.T)
    if not np.isfinite(res).all():  # one pass; X or Y is named only on failure
        name = "Y" if np.isfinite(res.real).all() else "X"
        raise ValueError("%s has a non-finite entry" % name)
    _check_posdef(res.imag, "Im(Omega)")
    return SiegelPoint._of(res.real.copy(), res.imag.copy())


def act_jacobi(x: JacobiGroupElement, p: JacobiPoint) -> JacobiPoint:
    """Jacobi action (Omega, Z) -> (M.Omega, (Z + lam Omega + mu)(C Omega + D)^{-1});
    for a cond_bounded M the last factor is t(A), as in act_siegel."""
    if x.g != p.g or x.h != p.h:
        raise ValueError("shape mismatch between element and point")
    new_omega = act_siegel(x.m, p.omega)   # has guarded C Omega + D
    a, _, c, d = x.m.float_blocks
    omega = p.omega.omega
    lam, mu = x.heis.float_parts
    w = p.Z + lam @ omega + mu
    if x.m.cond_bounded:
        z_new = w @ a.T
    else:
        z_new = np.linalg.solve((c @ omega + d).T, w.T).T
    return JacobiPoint.from_z(new_omega, z_new)
