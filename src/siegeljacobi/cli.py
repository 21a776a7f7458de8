"""Command-line interface: reduction, membership, volumes, spectral checks.

Every command reads single-document JSON (file or stdin), writes a single
RunReport JSON document to stdout, and keeps diagnostics on stderr.  Exit
codes: 0 success, 2 parse/usage error, 3 numeric failure.  Reports are
deterministic for fixed inputs and --seed; only the timing field varies.
main(argv) may be called repeatedly in one process: the parser is built on
the first call and reused, and each report goes out in a single write.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import lru_cache

import numpy as np

from .geometry import (VOLUME_TARGETS, laplacian_apply, metric_jacobi,
                       metric_p, metric_siegel, volume_f1, volume_fg_mc)
from .group_core import (IllConditionedActionError, JacobiPoint, SiegelPoint,
                         _check_pd, _check_symmetric)
from .jacobi_domain import in_P_omega, jacobi_membership, jacobi_reduce
from .jsonio import (decode_complex, decode_jacobi_point, decode_matrix,
                     decode_siegel_point, encode_jacobi_element,
                     encode_jacobi_point, encode_matrix, encode_siegel_point,
                     encode_symplectic, get_field)
from .minkowski import (DEFAULT_EPS, ReductionError, is_minkowski_reduced,
                        minkowski_reduce)
from .siegel import (SiegelReductionError, _decode_candidates, builtin_candidates,
                     encode_candidates, siegel_membership, siegel_reduce)
from .torus_spectral import (FourierIndex, QuadratureGridError,
                             character_table, eigenvalue_E, eval_E_omega,
                             frequency_indices, torus_grid)

_NUMERIC_ERRORS = (ReductionError, SiegelReductionError,
                   IllConditionedActionError, QuadratureGridError,
                   np.linalg.LinAlgError)


class _InputError(ValueError):
    pass


def _read_json(path):
    try:
        if path is None or path == "-":
            raw = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                raw = fh.read()
    except OSError as exc:
        raise _InputError(str(exc)) from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw), digest
    except json.JSONDecodeError as exc:
        raise _InputError("malformed JSON: %s" % exc) from None


def _sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _report(args, digest, outputs, tolerances, t0, guarantee=None):
    """Write the RunReport; ``guarantee`` goes beside ``outputs`` on every
    report whose verdict rests on a candidate set."""
    rep = {
        "command": " ".join(args),
        "inputs_digest": digest,
        "outputs": outputs,
        "tolerances": tolerances,
        "timing_s": round(time.perf_counter() - t0, 6),
    }
    if guarantee is not None:
        rep["guarantee"] = guarantee
    sys.stdout.write(json.dumps(rep, sort_keys=True) + "\n")


def _candidates(g, path):
    """The built-in candidate set for genus g, or the --candidates file's, read like
    every input; a missing, malformed or wrong-genus file names flag and path."""
    if path is None:
        return builtin_candidates(g)
    try:
        cands = _decode_candidates(_read_json(path)[0], source=path)
        if cands.g != g:
            raise ValueError("the family has g=%d, the input has g=%d" % (cands.g, g))
    except ValueError as exc:
        raise _InputError("--candidates %s: %s" % (path, exc)) from None
    return cands


def _decode_pd(obj):
    """The cone point's Y, checked symmetric positive definite."""
    return _check_pd(decode_matrix(get_field(obj, "Y", "point"), "point.Y"), "point.Y")


def _refuse_candidates(ns, mode):
    """--candidates names a Siegel candidate family, which mode never reads."""
    if ns.candidates is not None:
        raise _InputError("--candidates does not apply to %s" % mode)


def _cmd_reduce(ns, argv, t0):
    if ns.minkowski:
        _refuse_candidates(ns, "--minkowski")
    obj, digest = _read_json(ns.point)
    tol = {"eps": ns.eps}
    if ns.minkowski:
        y = _decode_pd(obj)
        cert = minkowski_reduce(y, eps=ns.eps)
        out = {"reduced": encode_matrix(cert.reduced),
               "transform": encode_matrix(cert.transform.entries),
               "iterations": cert.iterations}
    elif ns.siegel:
        p = decode_siegel_point(obj)
        cands = _candidates(p.g, ns.candidates)
        cert = siegel_reduce(p, cands, eps=ns.eps)
        out = {"reduced": encode_siegel_point(cert.reduced),
               "gamma": encode_symplectic(cert.gamma),
               "iterations": cert.iterations,
               "on_boundary": cert.on_boundary}
    else:
        p = decode_jacobi_point(obj)
        cands = _candidates(p.g, ns.candidates)
        cert = jacobi_reduce(p, cands, eps=ns.eps)
        out = {"reduced": encode_jacobi_point(cert.reduced),
               "gammaJ": encode_jacobi_element(cert.gammaJ),
               "on_boundary": cert.on_boundary}
    _report(argv, digest, out, tol, t0, None if ns.minkowski else cert.guarantee)
    return 0


def _cmd_member(ns, argv, t0):
    if ns.minkowski or ns.p_omega:
        _refuse_candidates(ns, "--minkowski" if ns.minkowski else "--p-omega")
    obj, digest = _read_json(ns.point)
    tol = {"eps": ns.eps}
    cands = None
    if ns.minkowski:
        y = _decode_pd(obj)
        out = {"member": bool(is_minkowski_reduced(y, eps=ns.eps))}
    elif ns.siegel:
        p = decode_siegel_point(obj)
        cands = _candidates(p.g, ns.candidates)
        member, boundary = siegel_membership(p, cands, eps=ns.eps)
        out = {"member": member, "on_boundary": boundary}
    elif ns.p_omega:
        if ns.omega is None:
            raise _InputError("--omega FILE is required for --p-omega")
        om_obj, _ = _read_json(ns.omega)
        omega = decode_siegel_point(om_obj, "omega")
        z = decode_complex(get_field(obj, "Z", "point"), "point.Z")
        res = in_P_omega(JacobiPoint.from_z(omega, z).Z, omega, eps=ns.eps)
        out = {"member": res.inside, "on_boundary": res.on_boundary}
    else:
        p = decode_jacobi_point(obj)
        cands = _candidates(p.g, ns.candidates)
        member, boundary = jacobi_membership(p, cands, eps=ns.eps)
        out = {"member": member, "on_boundary": boundary}
    _report(argv, digest, out, tol, t0, None if cands is None else cands.guarantee)
    return 0


#: the volume flags each method applies, with their defaults
_VOLUME_FLAGS = {"quadrature": {"nodes": 64},
                 "monte-carlo": {"seed": 0, "threads": 1, "eps": DEFAULT_EPS,
                                 "candidates": None}}


def _cmd_volume(ns, argv, t0):
    method = "quadrature" if ns.samples is None else "monte-carlo"
    if method == "quadrature" and ns.g != 1:
        raise _InputError("deterministic quadrature is only available for --g 1; "
                          "pass --samples for Monte Carlo")
    for flags_of, flags in _VOLUME_FLAGS.items():
        for name, default in flags.items():
            if getattr(ns, name) is None:
                setattr(ns, name, default)
            elif flags_of != method:
                raise _InputError("--%s does not apply to the %s volume" % (name, method))
    tol = {"eps": ns.eps} if method == "monte-carlo" else {}
    target = VOLUME_TARGETS.get(ns.g)
    guarantee = None
    # "bound" is the Minkowski box of earlier reports, kept so that their
    # digests still match: boxes 3 and 1 cut out the same cone at g <= 2
    inputs = {"g": ns.g, "samples": ns.samples, "seed": ns.seed,
              "eps": ns.eps, "bound": 3}
    if method == "quadrature":
        est = volume_f1(ns.nodes)
        out = {"estimate": est, "stderr": 0.0, "target": target,
               "sigmas": None, "method": "quadrature", "nodes": ns.nodes}
        inputs["nodes"] = ns.nodes
    else:
        cands = _candidates(ns.g, ns.candidates)
        res = volume_fg_mc(ns.g, ns.samples, ns.seed, threads=ns.threads,
                           eps=ns.eps, cands=cands)
        guarantee = cands.guarantee
        inputs["candidates"] = {"source": cands.source,
                                "sha256": _sha256_json(encode_candidates(cands))}
        sig = abs(res.estimate - target) / res.stderr if (target and res.stderr) else None
        out = {"estimate": res.estimate, "stderr": res.stderr, "target": target,
               "sigmas": sig, "method": "monte-carlo", "samples": ns.samples,
               "seed": ns.seed, "acceptance_rate": res.acceptance_rate}
    _report(argv, _sha256_json(inputs), out, tol, t0, guarantee)
    return 0


def _cmd_spectral_check(ns, argv, t0):
    if ns.omega is not None:
        obj, digest = _read_json(ns.omega)
        omega = decode_siegel_point(obj)
        if omega.g != ns.g:
            raise _InputError("--omega has g=%d, expected --g %d" % (omega.g, ns.g))
    else:
        omega = SiegelPoint.from_omega(1j * np.eye(ns.g))
        digest = hashlib.sha256(b"default-omega").hexdigest()
    h, g = ns.h, ns.g
    rng = np.random.default_rng(ns.seed)

    p, q = torus_grid(h, g, ns.nodes)
    idxs = frequency_indices(h, g, 1)
    table = character_table(idxs, p, q, omega)
    gram = table.conj() @ table.T / p.shape[0]
    orth_dev = float(np.max(np.abs(gram - np.eye(len(idxs)))))

    per_dev = 0.0
    for _ in range(100):
        idx = FourierIndex(rng.integers(-2, 3, (h, g)), rng.integers(-2, 3, (h, g)))
        z = rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g))
        lam = rng.integers(-3, 4, (h, g))
        mu = rng.integers(-3, 4, (h, g))
        shift = z + lam @ omega.omega + mu
        per_dev = max(per_dev, float(abs(
            eval_E_omega(idx, shift, omega) - eval_E_omega(idx, z, omega))))

    eig_residuals = []
    for _ in range(ns.eigen_checks):
        idx = FourierIndex(rng.integers(-ns.max_freq, ns.max_freq + 1, (h, g)),
                           rng.integers(-ns.max_freq, ns.max_freq + 1, (h, g)))
        lam = eigenvalue_E(idx, omega)
        z0 = rng.normal(size=(h, g)) + 1j * rng.normal(size=(h, g))
        pt = JacobiPoint.from_z(omega, z0)
        val = laplacian_apply("omega", lambda zz: eval_E_omega(idx, zz, omega), pt)
        base = eval_E_omega(idx, z0, omega)
        if abs(lam) > 1e-12:
            eig_residuals.append(float(abs(val / base - lam) / abs(lam)))
        else:
            eig_residuals.append(float(abs(val / base)))
    out = {"orthonormality_max_dev": orth_dev,
           "periodicity_max_dev": per_dev,
           "eigen_residuals": eig_residuals}
    _report(argv, digest, out, {}, t0)
    return 0


def _tangent(obj, key, where, decode, shape, symmetric=True):
    """Tangent ``key`` of the object at ``where``, checked for its shape and,
    for H, T and dOmega, for symmetry of its real and imaginary parts."""
    field = "%s.%s" % (where, key)
    t = decode(get_field(obj, key, where), field)
    if t.shape != shape:
        raise _InputError("%s: expected a %d x %d matrix, got %d x %d"
                          % ((field,) + shape + t.shape))
    if symmetric:
        parts = (((field + ".re", t.real), (field + ".im", t.imag))
                 if np.iscomplexobj(t) else ((field, t),))
        for name, m in parts:
            _check_symmetric(m, name)
    return t


def _cmd_metric_eval(ns, argv, t0):
    obj, digest = _read_json(ns.point)
    if ns.kind == "P":
        y = _decode_pd(obj)
        g = y.shape[0]
        val = metric_p(y, *(_tangent(obj, key, "point", decode_matrix, (g, g))
                            for key in ("H1", "H2")))
    elif ns.kind == "siegel":
        p = decode_siegel_point(obj)
        val = metric_siegel(p, *(_tangent(obj, key, "point", decode_complex, (p.g, p.g))
                                 for key in ("T1", "T2")))
    else:
        p = decode_jacobi_point(obj)
        tangents = []
        for key in ("T1", "T2"):
            t = get_field(obj, key, "point")
            where = "point." + key
            tangents.append((_tangent(t, "dOmega", where, decode_complex, (p.g, p.g)),
                             _tangent(t, "dZ", where, decode_complex, (p.h, p.g),
                                      symmetric=False)))
        val = metric_jacobi(p, *tangents)
    _report(argv, digest, {"value": val}, {}, t0)
    return 0


def _eps(text):
    """--eps: finite and >= 0 (a negative eps, the strict interior, is library-only)."""
    eps = float(text)
    if not (np.isfinite(eps) and eps >= 0):
        raise argparse.ArgumentTypeError("must be finite and >= 0, got %r" % text)
    return eps


def _at_least(low):
    """Type of an integer flag >= low; argparse names the flag on a refusal."""
    def integer(text):
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError("must be >= %d, got %r" % (low, text))
        return n
    return integer


@lru_cache(maxsize=None)
def _build_parser():
    ap = argparse.ArgumentParser(prog="sjk", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--eps", type=_eps, default=DEFAULT_EPS,
                       help="membership tolerance fed to every inequality")
        p.add_argument("--candidates", default=None,
                       help="JSON file overriding the built-in candidate set")

    p = sub.add_parser("reduce", help="reduce a point into its fundamental domain")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--minkowski", action="store_true")
    mode.add_argument("--siegel", action="store_true")
    mode.add_argument("--jacobi", action="store_true")
    p.add_argument("--point", default=None, help="point JSON file (default: stdin)")
    common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("member", help="membership tests with boundary flags")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--minkowski", action="store_true")
    mode.add_argument("--siegel", action="store_true")
    mode.add_argument("--jacobi", action="store_true")
    mode.add_argument("--p-omega", dest="p_omega", action="store_true")
    p.add_argument("--point", default=None)
    p.add_argument("--omega", default=None, help="base point file for --p-omega")
    common(p)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("volume", help="fundamental domain volume")
    p.add_argument("--g", type=_at_least(1), required=True)
    p.add_argument("--samples", type=_at_least(2), default=None,
                   help="Monte Carlo sample count (omit for g=1 quadrature)")
    p.add_argument("--seed", type=_at_least(0), help="Monte Carlo seed (default 0)")
    p.add_argument("--threads", type=_at_least(1), help="Monte Carlo threads (default 1)")
    p.add_argument("--nodes", type=_at_least(1), help="quadrature nodes (default 64)")
    common(p)
    # None until given, so that a flag of the other method is refused
    p.set_defaults(func=_cmd_volume, eps=None)

    p = sub.add_parser("spectral-check", help="orthonormality/periodicity/eigen report")
    p.add_argument("--g", type=_at_least(1), default=1)
    p.add_argument("--h", type=_at_least(1), default=1)
    p.add_argument("--omega", default=None)
    p.add_argument("--max-freq", dest="max_freq", type=_at_least(0), default=2)
    p.add_argument("--nodes", type=_at_least(1), default=8)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--eigen-checks", dest="eigen_checks", type=_at_least(0), default=5)
    p.set_defaults(func=_cmd_spectral_check)

    p = sub.add_parser("metric-eval", help="evaluate an invariant metric")
    p.add_argument("--kind", choices=("P", "siegel", "jacobi"), required=True)
    p.add_argument("--point", default=None)
    p.set_defaults(func=_cmd_metric_eval)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = _build_parser()
    ns = ap.parse_args(argv)
    t0 = time.perf_counter()
    try:
        return ns.func(ns, argv, t0)
    except _NUMERIC_ERRORS as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 3
    except (_InputError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
