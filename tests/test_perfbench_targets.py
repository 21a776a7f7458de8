"""The benchmark's tracer wraps library functions by name: each layer it
declares must still exist, or ``perfbench/run.py --trace 1`` fails."""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    """The tracer module's names, run from its source: nothing is imported
    from or written under perfbench/."""
    names = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), names)
    return names


def _resolve(module, attr):
    obj = importlib.import_module("siegeljacobi." + module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module, attr", [t[:2] for t in _tracer()["TARGETS"]]
                         + [("minkowski", "_candidate_arrays")])
def test_traced_name_resolves(module, attr):
    # minkowski._candidate_arrays is warmed by perfbench/setup_child.py
    assert callable(_resolve(module, attr))


def test_jsonio_groups_match_functions():
    jsonio = importlib.import_module("siegeljacobi.jsonio")
    for prefix, _ in _tracer()["JSONIO_GROUPS"]:
        assert any(name.startswith(prefix) and callable(getattr(jsonio, name))
                   for name in dir(jsonio))
