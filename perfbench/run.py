"""Benchmark of the siegeljacobi library.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload reduce_mixed --seed 1 --seconds 20 --trace 0

Inputs are generated from ``--seed``; the library runs from ``src/`` of the
checkout.  With ``--trace 0`` the last stdout line is a JSON object carrying
the end-to-end metrics; with ``--trace 1`` the run measures untraced for half
of ``--seconds``, then again with every listed library function wrapped, and
the JSON carries the per-layer metrics.  Lines above it give the environment, every metric the
workload defines (including the workload-specific ones), the output digest
and the spans file.  The full record is written to ``perfbench/out/``.
"""

import os

#: BLAS / OpenMP pinning for this process, set before numpy is imported
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from setup_child import calibrate, setup  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
#: calibration kernel time on an uncontended host, and how often it is re-measured
CAL_REF_S = 1.8e-4
CAL_EVERY_S = 0.1
WORKLOAD_NAMES = ("mc_volume_g2", "reduce_mixed", "laplacian_spectral", "cli_roundtrip")


def measure_setup(workload):
    """Median set-up time and cold g = 2 load time over fresh interpreters,
    each scaled by the host-speed factor its interpreter measures right after."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_child.py"), workload],
                              env=env, capture_output=True, text=True, timeout=120,
                              check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    setup = [r["setup_s"] * CAL_REF_S / r["cal_s"] for r in runs]
    return (statistics.median(setup),
            statistics.median(r["load_s"] * CAL_REF_S / r["cal_s"] for r in runs), setup)


class Phase:
    """The ops of one timed loop: per-op wall and scaled times and class
    labels, and every pass as (inputs, outputs)."""

    def __init__(self):
        self.lat, self.scaled, self.labels, self.passes = [], [], [], []


class HostSpeed:
    """Timings of the calibration kernel, taken every CAL_EVERY_S."""

    def __init__(self):
        self.cals, self.t_cal = [], float("-inf")

    def due(self):
        return time.perf_counter() - self.t_cal >= CAL_EVERY_S

    def measure(self):
        self.cals.append(calibrate())
        self.t_cal = time.perf_counter()

    def scaled(self, pieces):
        """Sum of (kernel index, seconds) pieces, each scaled by the kernel
        timings just before and after it."""
        return sum(d * 2 * CAL_REF_S / (self.cals[c] + self.cals[c + 1]) for c, d in pieces)


def timed_op(wl, inp, hs):
    """Run one op; return its output (or exception) and its time as
    (kernel index, seconds) pieces.  A workload with ``sample_inside``
    re-times the kernel within the op, from a profile hook that runs between
    library calls, and leaves the kernel's time out of the op's."""
    pieces = []
    start = [0.0]

    def hook(frame, event, arg):
        if hs.due():
            now = time.perf_counter()
            pieces.append((len(hs.cals) - 1, now - start[0]))
            hs.measure()
            start[0] = time.perf_counter()

    if wl.sample_inside:
        sys.setprofile(hook)
    start[0] = time.perf_counter()
    try:
        out = wl.op(inp)
    except Exception as exc:  # an op failure is counted, not fatal
        out = exc
    finally:
        end = time.perf_counter()
        sys.setprofile(None)
    pieces.append((len(hs.cals) - 1, end - start[0]))
    return out, pieces


def run_loop(wl, seconds, first_pass, tracer=None):
    """Closed loop of whole passes on fresh inputs until ``seconds`` are
    done, at least one pass.  Inputs are made untimed and, in a traced loop,
    with the tracer removed.
    """
    ph = Phase()
    hs = HostSpeed()
    op_pieces = []
    k = first_pass
    t_end = time.perf_counter() + seconds
    while k == first_pass or time.perf_counter() < t_end:
        inputs = wl.make_pass(k)
        outputs = []
        if tracer is not None:
            tracer.install()
        for j, inp in enumerate(inputs):
            if hs.due():
                hs.measure()
            out, pieces = timed_op(wl, inp, hs)
            outputs.append(out)
            op_pieces.append(pieces)
            ph.labels.append(wl.label(j))
        if tracer is not None:
            tracer.uninstall()
        ph.passes.append((inputs, outputs))
        k += 1
    hs.measure()
    ph.lat = [sum(d for _, d in pieces) for pieces in op_pieces]
    ph.scaled = [hs.scaled(pieces) for pieces in op_pieces]
    return ph


def check_phase(wl, ph):
    """Number of ops of the phase that raised or failed their check."""
    bad = 0
    for inputs, outputs in ph.passes:
        for j, out in enumerate(outputs):
            if isinstance(out, Exception):
                ok = False
                msg = "op raised %r" % (out,)
            else:
                try:
                    ok = wl.check(j, inputs, outputs)
                    msg = "check failed"
                except Exception as exc:  # a check that raises is a failed check
                    ok, msg = False, "check raised %r" % (exc,)
            if not ok:
                if not bad:
                    print("perfbench: %s input %d: %s" % (wl.name, j, msg), file=sys.stderr)
                bad += 1
    return bad


def phase_stats(wl, ph):
    """Throughput, overall and per class, and latency quantiles over every op.

    Each op's time is scaled by the host-speed factor measured around it.
    """
    import numpy as np
    raw = np.asarray(ph.lat)
    scaled = np.asarray(ph.scaled)
    fac = scaled / raw
    class_time = {}
    for lab, t in zip(ph.labels, scaled):
        n, s = class_time.get(lab, (0, 0.0))
        class_time[lab] = (n + 1, s + t)
    ms = scaled * 1e3
    return {"ops_per_s": wl.units * len(raw) / float(scaled.sum()),
            "raw_ops_per_s": wl.units * len(raw) / float(raw.sum()),
            "cal_factor_median": float(np.median(fac)),
            "p50_ms": float(np.percentile(ms, 50)),
            "tail_ms": float(np.percentile(ms, wl.tail_pct)), "samples": len(raw),
            "passes": len(ph.passes), "scaled_s": scaled,
            "class_ops_per_s": {k: wl.units * n / s for k, (n, s) in class_time.items()}}


def environment(args):
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    tree = hashlib.sha256()
    for path in sorted((SRC / "siegeljacobi").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": sha, "src_sha256": tree.hexdigest(), "thread_vars": THREAD_VARS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "siegeljacobi" / "__init__.py").is_file():
        print("perfbench: %s/siegeljacobi not found; run from a repository checkout"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import siegeljacobi
    if Path(siegeljacobi.__file__).resolve().parent != SRC / "siegeljacobi":
        print("perfbench: imported siegeljacobi from %s, not %s"
              % (siegeljacobi.__file__, SRC), file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer, TracerError

    env = environment(args)
    setup_s, load_s, setup_runs = measure_setup(args.workload)
    setup(args.workload)
    wl = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl.prepare(args.seed, Path(workdir))
        wl.warmup()
        # a traced run splits its time between the untraced and traced loops
        phase_s = args.seconds / 2 if args.trace else args.seconds
        phases = [run_loop(wl, phase_s, 0)]
        if args.trace:
            tracer = Tracer()
            evals0 = wl.stencil_evals
            try:
                phases.append(run_loop(wl, phase_s, len(phases[0].passes), tracer))
            except TracerError as exc:
                print("perfbench: %s" % exc, file=sys.stderr)
                return 3
            finally:
                tracer.uninstall()
            stencil_evals = wl.stencil_evals - evals0
            idle = [n for n in wl.uses if tracer.calls[n] == 0]
            if idle:
                print("perfbench: layers declared for %s saw no calls: %s"
                      % (wl.name, ", ".join(idle)), file=sys.stderr)
                return 3
        failed = sum(check_phase(wl, ph) for ph in phases) * wl.units

    attempted = sum(len(ph.lat) for ph in phases) * wl.units
    stats = phase_stats(wl, phases[0])
    end_to_end = {"setup_s": (setup_s, "s"), "ops_per_s": (stats["ops_per_s"], "1/s"),
                  "p50_ms": (stats["p50_ms"], "ms"), "tail_ms": (stats["tail_ms"], "ms")}
    detail = dict(end_to_end)
    detail["failed_frac"] = (failed / attempted, "ratio")
    detail.update(wl.extra_metrics([o for _, outs in phases[0].passes for o in outs],
                                   stats["scaled_s"]))
    if len(stats["class_ops_per_s"]) > 1:
        for lab, rate in sorted(stats["class_ops_per_s"].items()):
            detail[lab + ".ops_per_s"] = (rate, "1/s")
    # the first pass's outputs depend on the seed alone
    digest = hashlib.sha256()
    for out in phases[0].passes[0][1]:
        key = repr(out) if isinstance(out, Exception) else wl.key(out)
        digest.update(repr(key).encode() + b"\n")

    record = {"env": env, "end_to_end": detail, "tail_percentile": wl.tail_pct,
              "latency_samples": stats["samples"], "passes": stats["passes"],
              "raw_ops_per_s": stats["raw_ops_per_s"],
              "cal_factor_median": stats["cal_factor_median"],
              "setup_runs_s": setup_runs, "digest": digest.hexdigest(),
              "attempted": attempted, "failed": failed}
    metrics = end_to_end
    if args.trace:
        tstats = phase_stats(wl, phases[1])
        layers = tracer.layer_metrics()
        layers["geometry.stencil_evals"] = (stencil_evals, "count")
        layers["siegel.builtin_candidates.load_s"] = (load_s, "s")
        layers["tracing_overhead_frac"] = (1 - tstats["ops_per_s"] / stats["ops_per_s"],
                                           "ratio")
        spans_path = OUT / ("spans_%s_seed%d.npz" % (wl.name, args.seed))
        tracer.save_spans(spans_path)
        record.update(per_layer=layers, spans_file=str(spans_path.relative_to(ROOT)),
                      spans_total=tracer.spans_total, spans_kept=len(tracer.span_start),
                      traced_raw_ops_per_s=tstats["raw_ops_per_s"])
        metrics = layers
    out_path = OUT / ("%s_seed%d_trace%d.json" % (wl.name, args.seed, args.trace))
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True))

    print("perfbench %s seed=%d seconds=%g trace=%d" % (wl.name, args.seed, args.seconds,
                                                         args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in detail.items():
        print("  %-28s %14.6g %s" % (name, value, unit))
    print("  tail percentile p%g over %d ops in %d passes; raw ops_per_s %.6g, "
          "median host-speed factor %.4f" % (wl.tail_pct, stats["samples"], stats["passes"],
                                             stats["raw_ops_per_s"],
                                             stats["cal_factor_median"]))
    print("digest sha256:%s" % record["digest"])
    if args.trace:
        for name, (value, unit) in layers.items():
            print("  %-52s %14.6g %s" % (name, value, unit))
        print("spans %d recorded, %d kept in %s" % (tracer.spans_total,
                                                    len(tracer.span_start),
                                                    record["spans_file"]))
    print("record " + str(out_path.relative_to(ROOT)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
