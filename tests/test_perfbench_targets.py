"""The benchmark's tracer wraps library functions by name: each layer it
declares must still exist, or ``perfbench/run.py --trace 1`` fails.  Its
set-up phase and its workloads call the library too, and must still run."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _names(filename):
    """A perfbench module's names, run from its source: nothing is imported
    from or written under perfbench/."""
    path = PERFBENCH / filename
    names = {"__name__": "perfbench_" + path.stem}
    exec(compile(path.read_text(), str(path), "exec"), names)
    return names


def _resolve(module, attr):
    obj = importlib.import_module("siegeljacobi." + module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module, attr", [t[:2] for t in _names("tracer.py")["TARGETS"]]
                         + [("minkowski", "_candidate_arrays")])
def test_traced_name_resolves(module, attr):
    # minkowski._candidate_arrays is warmed by perfbench/setup_child.py
    assert callable(_resolve(module, attr))


def test_jsonio_groups_match_functions():
    jsonio = importlib.import_module("siegeljacobi.jsonio")
    for prefix, _ in _names("tracer.py")["JSONIO_GROUPS"]:
        assert any(name.startswith(prefix) and callable(getattr(jsonio, name))
                   for name in dir(jsonio))


@pytest.mark.parametrize("workload", sorted(_names("setup_child.py")["SETUP_GENERA"]))
def test_setup_phase_runs(workload):
    # siegel.builtin_candidates(g) and
    # minkowski._candidate_arrays(g, minkowski.DEFAULT_BOUND), as the benchmark calls them
    assert _names("setup_child.py")["setup"](workload) >= 0.0


#: ops of pass 0 that cover each class once; laplacian_spectral's first
#: round, since a Jacobi op is checked against its pair
SMOKE_OPS = {"mc_volume_g2": 1, "reduce_mixed": 4, "laplacian_spectral": 10,
             "cli_roundtrip": 5}


@pytest.mark.parametrize("name", sorted(SMOKE_OPS))
def test_workload_runs_and_checks(name, tmp_path):
    workload = _names("workloads.py")["WORKLOADS"][name]()
    workload.prepare(11, tmp_path)
    inputs = workload.make_pass(0)[:SMOKE_OPS[name]]
    assert len({workload.label(j) for j in range(len(inputs))}) == len(set(workload.labels))
    outputs = [workload.op(inp) for inp in inputs]
    assert all(workload.check(j, inputs, outputs) for j in range(len(inputs)))


@pytest.mark.parametrize("name", sorted(SMOKE_OPS))
def test_traced_pass_calls_every_layer(name, tmp_path):
    # perfbench/run.py --trace 1 exits 3 when a layer in `uses` sees no call;
    # inputs are made with the tracer removed, as run.py makes them
    tracer = _names("tracer.py")["Tracer"]()
    workload = _names("workloads.py")["WORKLOADS"][name]()
    workload.prepare(11, tmp_path)
    inputs = workload.make_pass(0)
    tracer.install()
    try:
        for inp in inputs:
            workload.op(inp)
    finally:
        tracer.uninstall()
    assert [n for n in workload.uses if tracer.calls[n] == 0] == []
