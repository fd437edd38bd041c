"""Packaging metadata and the benchmark's trace hooks point at code that
exists."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    pyproject = ROOT / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text())
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), "console script %r -> %r" % (name, target)


def _package_bindings():
    """Every attribute of the package's modules and of their classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "nlhom" and not name.startswith("nlhom."):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__.startswith("nlhom"):
                for cattr, cvalue in vars(value).items():
                    out[name, attr, cattr] = cvalue
    return out


def test_benchmark_trace_hooks_install_and_restore():
    # `perfbench/run.py --trace 1` wraps package functions by name, so a
    # rename in the package must fail here rather than in a traced run
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from nlhom import cell, fixtures, kernels, lineops, particles, spde, torus  # noqa: F401

    before = _package_bindings()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert tracer._patches
        assert torus._multiplier_matrix is not before["nlhom.torus",
                                                      "_multiplier_matrix"]
    finally:
        tracer.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert not moved, "trace hooks left wrappers behind: %r" % moved
