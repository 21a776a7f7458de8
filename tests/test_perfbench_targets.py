"""The benchmark's tracer wraps library functions by name: each layer it
declares must still exist, or ``perfbench/run.py --trace 1`` fails.  Its
set-up phase calls the library too, and must still run."""

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
