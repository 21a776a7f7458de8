"""The benchmark's four workloads: seeded inputs, the timed operation, checks.

Every workload is a closed loop with one caller in one process.  A pass
runs ``period`` inputs once each; pass ``k`` draws fresh inputs from
``(seed, k)``, so no input repeats within a run and a library-side result
cache gains nothing.  All library calls go through module attributes
(``siegel.siegel_reduce``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from math import pi

import numpy as np

from siegeljacobi import (cli, geometry, group_core, jacobi_domain, jsonio,
                          minkowski, siegel, torus_spectral)

REL_TOL = 1e-8          # reproduction of a reduced point through gamma
GATE_TOL = 1e-5         # Laplacian gates 05b, 06 and 09


# ---------------------------------------------------------------------------
# seeded input helpers (numpy only)
# ---------------------------------------------------------------------------

def _sym_normal(rng, g, scale=1.0):
    x = rng.normal(scale=scale, size=(g, g))
    return 0.5 * (x + x.T)


def _pd(rng, g, floor):
    a = rng.normal(size=(g, g))
    return a @ a.T + floor * np.eye(g)


def _log_uniform_strata(rng, n, lo, hi):
    """n log-uniform scales, one per equal stratum of [lo, hi], shuffled."""
    u = (np.arange(n) + rng.random(n)) / n
    return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))[rng.permutation(n)]


def _complex_normal(rng, shape, scale=1.0):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _rand_jacobi_element(rng, g, h, word_len=2, span=1):
    """Short random word in translations, inversions, GL embeds and Heisenberg shifts."""
    gc = group_core
    x = gc.JacobiGroupElement.identity(g, h)
    for _ in range(word_len):
        if rng.random() < 0.5:
            kind = rng.integers(0, 3)
            if kind == 0:
                s = rng.integers(-span, span + 1, (g, g))
                m = gc.SymplecticInt.translation(s + s.T)
            elif kind == 1:
                m = gc.SymplecticInt.inversion(g)
            else:
                u = np.eye(g, dtype=int)
                i, j = rng.choice(g, 2, replace=False)
                u[:, j] += int(rng.integers(-span, span + 1)) * u[:, i]
                m = gc.SymplecticInt.gl_embed(u)
            step = gc.JacobiGroupElement(m, gc.HeisenbergInt.identity(g, h))
        else:
            step = gc.JacobiGroupElement(
                gc.SymplecticInt.identity(g),
                gc.HeisenbergInt.from_lam_mu(rng.integers(-span, span + 1, (h, g)),
                                             rng.integers(-span, span + 1, (h, g))))
        x = gc.jacobi_mul(x, step)
    return x


def _ints(*mats):
    return tuple(int(v) for m in mats for v in np.asarray(m).ravel())


def _close(a, b, tol=REL_TOL):
    a, b = np.asarray(a), np.asarray(b)
    return bool(np.max(np.abs(a - b)) <= tol * max(1.0, float(np.max(np.abs(b)))))


def _sl2z_oracle(tau: complex, eps: float = 1e-9) -> complex:
    """Classical reduction of tau by translations and the inversion -1/tau."""
    for _ in range(10000):
        tau = complex(tau.real - round(tau.real), tau.imag)
        if abs(tau) ** 2 < 1.0 - eps:
            tau = -1.0 / tau
        else:
            return tau
    raise RuntimeError("classical reduction did not terminate")


def _same_mod_boundary(a: complex, b: complex, btol: float = 1e-6) -> bool:
    """Equality of reduced points up to the boundary identifications of F_1."""
    reps = {b}
    if abs(abs(b.real) - 0.5) < btol:
        reps.add(complex(b.real - np.sign(b.real), b.imag))
    for r in list(reps):
        if abs(abs(r) - 1.0) < btol:
            inv = -1.0 / r
            reps.add(inv)
            if abs(abs(inv.real) - 0.5) < btol:
                reps.add(complex(inv.real - np.sign(inv.real), inv.imag))
    return any(abs(a - r) <= REL_TOL * max(1.0, abs(r)) for r in reps)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """One benchmark workload; subclasses fill in inputs, op, key and check."""

    name = ""
    #: inputs, i.e. ops, in one pass
    period = 1
    #: units of work per op, so ops_per_s counts samples for Monte Carlo
    units = 1
    #: class label of the ``j``-th op of a pass
    labels = ()
    #: spans the traced run must see called at least once
    uses = ()
    #: test-function evaluations made by the benchmark's own f
    stencil_evals = 0
    #: pass index of the untimed warm-up inputs, apart from the timed passes
    WARM_PASS = 1 << 30
    #: ops last seconds, so the host speed is re-measured inside each op
    sample_inside = False

    def prepare(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def rng(self, k):
        """Generator of pass ``k``'s inputs."""
        return np.random.default_rng([self.seed, k])

    def label(self, j):
        return self.labels[j % self.period]

    @property
    def tail_pct(self):
        """The highest standard percentile with at least ten of one pass's
        ops beyond it; the maximum when a pass is too short for any."""
        return max((q for q in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
                    if self.period * (1 - q / 100) >= 10), default=100.0)

    def warmup(self):
        """Run the first input of each class of the warm-up pass, untimed."""
        seen = set()
        for j, inp in enumerate(self.make_pass(self.WARM_PASS)):
            if self.label(j) not in seen:
                seen.add(self.label(j))
                self.op(inp)

    def extra_metrics(self, outputs, scaled_s) -> dict:
        return {}


class McVolumeG2(Workload):
    """Why: the batch path does all the work here (49-candidate mask,
    Minkowski mask, g = 2 proposal) and no exact-integer code, act_siegel or
    scalar det_sq runs; the bypass case for every reduction-path change."""

    name = "mc_volume_g2"
    #: samples per call: one chunk of volume_fg_mc's default size
    CALL_SAMPLES = 500_000
    units = CALL_SAMPLES
    labels = ("mc",)
    sample_inside = True
    uses = ("geometry._chunk_g2", "siegel.membership_mask_points",
            "minkowski.membership_mask")
    #: sigma band of each estimate; a 3-sigma band would fail about one
    #: correct call in 370, a 4-sigma band one in 16 000
    SIGMAS = 4.0

    def make_pass(self, k):
        return [int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])]

    def warmup(self):
        geometry.volume_fg_mc(2, 2_000, self.seed)

    def op(self, call_seed):
        return geometry.volume_fg_mc(2, self.CALL_SAMPLES, call_seed)

    def key(self, out):
        return (out.estimate.hex(), out.stderr.hex())

    def check(self, j, inputs, outputs):
        out = outputs[j]
        return (out.n_samples == self.CALL_SAMPLES and np.isfinite(out.estimate)
                and out.stderr > 0
                and abs(out.estimate - pi ** 3 / 270.0) <= self.SIGMAS * out.stderr)

    def extra_metrics(self, outputs, scaled_s):
        ttt = [t * (o.stderr / o.estimate / 1e-3) ** 2 for o, t in zip(outputs, scaled_s)
               if not isinstance(o, Exception)]
        return {"time_to_0.1pct_s": (float(np.median(ttt)), "s")} if ttt else {}


class ReduceMixed(Workload):
    """Why: the scalar path does all the work (exact SymplecticInt products,
    act_siegel, minkowski_reduce, det_sq, siegel_membership) and the batch
    mask never runs; g = 1 isolates exact-integer overhead, g = 3 (heuristic
    family, 342-vector Minkowski box) isolates minkowski."""

    name = "reduce_mixed"
    PER_CLASS = 160
    CLASSES = (("siegel_g1", 1, 0), ("siegel_g2", 2, 0), ("siegel_g3", 3, 0),
               ("jacobi_g2h2", 2, 2))
    period = PER_CLASS * len(CLASSES)
    labels = tuple(c[0] for c in CLASSES) * PER_CLASS
    uses = ("intmat.as_imat", "intmat.int_det", "intmat.int_inv_unimodular",
            "group_core.symplectic_check", "group_core.SymplecticInt.__mul__",
            "group_core.SymplecticInt.is_identity", "group_core.act_siegel",
            "group_core.jacobi_mul", "minkowski.is_minkowski_reduced",
            "minkowski.minkowski_reduce", "siegel.det_sq", "siegel.siegel_membership",
            "siegel.highest_point_step", "siegel.siegel_reduce",
            "jacobi_domain.jacobi_reduce", "jacobi_domain.decompose_in_omega_basis")

    def make_pass(self, k):
        rng = self.rng(k)
        per_class = []
        for _, g, h in self.CLASSES:
            pts = []
            for s in _log_uniform_strata(rng, self.PER_CLASS, 0.01, 1.0):
                p = group_core.SiegelPoint(_sym_normal(rng, g), s * _pd(rng, g, 0.3))
                if h:
                    p = group_core.JacobiPoint.from_z(p, _complex_normal(rng, (h, g)))
                pts.append(p)
            per_class.append(pts)
        return [per_class[c][n] for n in range(self.PER_CLASS)
                for c in range(len(self.CLASSES))]

    def op(self, p):
        if isinstance(p, group_core.JacobiPoint):
            return jacobi_domain.jacobi_reduce(p)
        return siegel.siegel_reduce(p)

    def key(self, out):
        if isinstance(out, jacobi_domain.JacobiCertificate):
            x = out.gammaJ
            return _ints(x.m.A, x.m.B, x.m.C, x.m.D, x.heis.lam, x.heis.mu, x.heis.kappa)
        return _ints(out.gamma.A, out.gamma.B, out.gamma.C, out.gamma.D) + (out.iterations,)

    def check(self, j, inputs, outputs):
        p, out = inputs[j], outputs[j]
        if isinstance(p, group_core.JacobiPoint):
            x = out.gammaJ
            back = group_core.act_jacobi(x, out.reduced)
            return (group_core.symplectic_check(x.m.matrix)
                    and _close(back.omega.omega, p.omega.omega) and _close(back.Z, p.Z)
                    and jacobi_domain.in_F_gh(out.reduced))
        red = out.reduced
        ok = (group_core.symplectic_check(out.gamma.matrix)
              and _close(group_core.act_siegel(out.gamma, p).omega, red.omega)
              and siegel.siegel_membership(red)[0])
        if ok and p.g == 1:
            ok = _same_mod_boundary(complex(red.omega[0, 0]),
                                    _sl2z_oracle(complex(p.omega[0, 0])))
        return ok


class LaplacianSpectral(Workload):
    """Why: apart from the float act_jacobi inside the pulled-back test
    function only geometry and torus_spectral work here, the bypass case for
    every siegel/minkowski/intmat change, and the only workload that runs
    _operator_terms."""

    name = "laplacian_spectral"
    ROUNDS = 48
    #: one round: a Jacobi pair (lhs, rhs), four characters, four det powers
    ROUND = ("lap_jacobi", "lap_jacobi") + ("lap_omega",) * 4 + ("lap_siegel",) * 4
    period = ROUNDS * len(ROUND)
    labels = ROUND * ROUNDS
    uses = ("geometry.laplacian_apply", "geometry._operator_terms",
            "geometry.metric_jacobi", "group_core.act_siegel",
            "torus_spectral.eval_E_omega", "torus_spectral.eigenvalue_E")
    S_VALUES = (0.5, 2.0, 3.0)
    #: least eigenvalue of Im(x . p) a Jacobi pair may have
    MIN_IMAG_EIG = 0.1

    def _counted(self, f):
        def counted(*args):
            self.stencil_evals += 1
            return f(*args)
        return counted

    def make_pass(self, k):
        rng = self.rng(k)
        gc = group_core
        cases = []
        for r in range(self.ROUNDS):
            # gate 05b: Delta(f o x)(p) against (Delta f)(x . p) at (g, h) = (2, 1)
            base = gc.SiegelPoint(_sym_normal(rng, 2, 0.4), _pd(rng, 2, 0.9))
            p = gc.JacobiPoint.from_z(base, _complex_normal(rng, (1, 2), 0.8))
            # the fixed 1e-3 difference step misses the gate's tolerance where
            # Im(x . p) has an eigenvalue below about 0.05, so x is redrawn there
            while True:
                x = _rand_jacobi_element(rng, 2, 1)
                q = gc.act_jacobi(x, p)
                if np.linalg.eigvalsh(q.omega.Y)[0] >= self.MIN_IMAG_EIG:
                    break
            pmat = rng.normal(size=(1, 2))
            rmat = rng.normal(size=(2, 2))

            def f(om, zz, pmat=pmat, rmat=rmat):
                return (np.sin(np.real(np.sum(pmat * zz)) + np.real(np.trace(rmat @ om)))
                        + np.cos(np.imag(np.sum(pmat * zz)))
                        + np.log(np.linalg.det(om.imag)))

            def f_pulled(om, zz, f=f, x=x):
                moved = group_core.act_jacobi(
                    x, group_core.JacobiPoint.from_z(group_core.SiegelPoint.from_omega(om), zz))
                return f(moved.omega.omega, moved.Z)

            lhs = len(cases)
            cases.append(("jacobi", self._counted(f_pulled), p, lhs + 1))
            cases.append(("jacobi", self._counted(f), q, lhs))
            # gate 09: characters are fiber eigenfunctions
            for _ in range(4):
                om = gc.SiegelPoint(_sym_normal(rng, 2), _pd(rng, 2, 0.6))
                while True:
                    idx = torus_spectral.FourierIndex(rng.integers(-2, 3, (1, 2)),
                                                      rng.integers(-2, 3, (1, 2)))
                    if abs(torus_spectral.eigenvalue_E(idx, om)) > 1e-10:
                        break
                z0 = _complex_normal(rng, (1, 2))

                def fe(zz, idx=idx, om=om):
                    return torus_spectral.eval_E_omega(idx, zz, om)

                cases.append(("omega", self._counted(fe),
                                   gc.JacobiPoint.from_z(om, z0), (idx, om, z0)))
            # gate 06 at g = 2: det(Im Omega)^s has eigenvalue s(2s - 3)
            for k in range(4):
                s = self.S_VALUES[(4 * r + k) % len(self.S_VALUES)]
                om = gc.SiegelPoint(_sym_normal(rng, 2), _pd(rng, 2, 0.6))

                def fd(w, s=s):
                    return np.linalg.det(w.imag) ** s

                cases.append(("siegel", self._counted(fd), om, s))
        return cases

    def op(self, case):
        kind, f, point, extra = case
        val = geometry.laplacian_apply(kind, f, point)
        if kind == "omega":
            return val, torus_spectral.eigenvalue_E(extra[0], extra[1])
        return val, None

    def key(self, out):
        val, lam = out
        return ("%.10g" % val.real, "%.10g" % val.imag,
                None if lam is None else "%.10g" % lam)

    def check(self, j, inputs, outputs):
        kind, _, point, extra = inputs[j]
        val, lam = outputs[j]
        if kind == "jacobi":
            lo, hi = sorted((j, extra))
            if isinstance(outputs[lo], Exception) or isinstance(outputs[hi], Exception):
                return False
            lhs, rhs = outputs[lo][0], outputs[hi][0]
            return abs(lhs - rhs) / max(1.0, abs(rhs)) < GATE_TOL
        if kind == "omega":
            idx, om, z0 = extra
            base = torus_spectral.eval_E_omega(idx, z0, om)
            return abs(val / base - lam) / abs(lam) <= GATE_TOL
        f0 = np.linalg.det(point.Y) ** extra
        return abs(val - extra * (2 * extra - 3) * f0) / f0 <= GATE_TOL


class CliRoundtrip(Workload):
    """Why: the only workload that covers cli and jsonio (argparse, JSON
    decode, resolve_candidates, exact certificate encoding); it reaches
    reduction through another path than the library calls."""

    name = "cli_roundtrip"
    PER_COMMAND = 48
    COMMANDS = ("reduce_siegel", "reduce_jacobi", "member_siegel",
                "reduce_minkowski", "metric_jacobi")
    period = PER_COMMAND * len(COMMANDS)
    labels = COMMANDS * PER_COMMAND
    uses = ("cli.main", "jsonio.decode", "jsonio.encode", "siegel.siegel_reduce",
            "jacobi_domain.jacobi_reduce", "minkowski.minkowski_reduce",
            "siegel.siegel_membership", "geometry.metric_jacobi")

    def _write(self, ident, obj):
        path = self.workdir / ("in_%04d.json" % ident)
        path.write_text(json.dumps(obj))
        return str(path)

    def make_pass(self, k):
        """Commands of pass ``k``; their input files overwrite the last pass's."""
        rng = self.rng(k)
        gc = group_core
        jobs = []
        for n in range(self.PER_COMMAND):
            for cmd in self.COMMANDS:
                ident = len(jobs)
                if cmd == "reduce_minkowski":
                    obj = {"Y": jsonio.encode_matrix(_pd(rng, 3, 0.05))}
                    argv = ["reduce", "--minkowski"]
                elif cmd == "reduce_jacobi":
                    om = gc.SiegelPoint(_sym_normal(rng, 2),
                                        np.exp(rng.uniform(np.log(0.01), 0.0)) * _pd(rng, 2, 0.3))
                    obj = jsonio.encode_jacobi_point(
                        gc.JacobiPoint.from_z(om, _complex_normal(rng, (2, 2))))
                    argv = ["reduce", "--jacobi"]
                elif cmd == "metric_jacobi":
                    om = gc.SiegelPoint(_sym_normal(rng, 2), _pd(rng, 2, 0.6))
                    obj = jsonio.encode_jacobi_point(
                        gc.JacobiPoint.from_z(om, _complex_normal(rng, (1, 2))))
                    for t in ("T1", "T2"):
                        d = _complex_normal(rng, (2, 2))
                        obj[t] = {"dOmega": jsonio.encode_complex(0.5 * (d + d.T)),
                                  "dZ": jsonio.encode_complex(_complex_normal(rng, (1, 2)))}
                    argv = ["metric-eval", "--kind", "jacobi"]
                else:
                    p = gc.SiegelPoint(_sym_normal(rng, 2),
                                       np.exp(rng.uniform(np.log(0.01), 0.0)) * _pd(rng, 2, 0.3))
                    if cmd == "member_siegel" and n % 2 == 0:
                        p = siegel.siegel_reduce(p).reduced
                    obj = jsonio.encode_siegel_point(p)
                    argv = (["reduce", "--siegel"] if cmd == "reduce_siegel"
                            else ["member", "--siegel"])
                jobs.append((cmd, argv + ["--point", self._write(ident, obj)], obj))
        return jobs

    def op(self, job):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(job[1]))
        return code, out.getvalue()

    def key(self, out):
        code, text = out
        try:
            outputs = json.loads(text)["outputs"]
        except (ValueError, KeyError):
            return code, text
        return code, json.dumps(outputs, sort_keys=True)

    def _expected(self, cmd, obj):
        enc = jsonio
        if cmd == "reduce_minkowski":
            cert = minkowski.minkowski_reduce(enc.decode_matrix(obj["Y"]))
            return {"reduced": enc.encode_matrix(cert.reduced),
                    "transform": enc.encode_matrix(cert.transform.entries),
                    "iterations": cert.iterations}
        if cmd == "reduce_jacobi":
            cert = jacobi_domain.jacobi_reduce(enc.decode_jacobi_point(obj))
            return {"reduced": enc.encode_jacobi_point(cert.reduced),
                    "gammaJ": enc.encode_jacobi_element(cert.gammaJ),
                    "on_boundary": cert.on_boundary}
        if cmd == "metric_jacobi":
            p = enc.decode_jacobi_point(obj)
            t1, t2 = ((enc.decode_complex(obj[t]["dOmega"]), enc.decode_complex(obj[t]["dZ"]))
                      for t in ("T1", "T2"))
            return {"value": geometry.metric_jacobi(p, t1, t2)}
        p = enc.decode_siegel_point(obj)
        if cmd == "member_siegel":
            member, boundary = siegel.siegel_membership(p)
            return {"member": member, "on_boundary": boundary}
        cert = siegel.siegel_reduce(p)
        return {"reduced": enc.encode_siegel_point(cert.reduced),
                "gamma": enc.encode_symplectic(cert.gamma),
                "iterations": cert.iterations, "on_boundary": cert.on_boundary}

    def check(self, j, inputs, outputs):
        code, text = outputs[j]
        if code != 0:
            return False
        cmd, _, obj = inputs[j]
        expected = json.loads(json.dumps(self._expected(cmd, obj)))
        return json.loads(text)["outputs"] == expected


WORKLOADS = {w.name: w for w in (McVolumeG2, ReduceMixed, LaplacianSpectral, CliRoundtrip)}
