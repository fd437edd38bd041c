"""Packaging metadata, module exports and the benchmark's trace hooks point
at code that exists, and the benchmark's reference traces are the package's."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_module_exports_resolve():
    # a deletion or rename must update the module's __all__ with it
    import nlhom

    for info in pkgutil.iter_modules(nlhom.__path__):
        module = importlib.import_module("nlhom." + info.name)
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, "nlhom.%s.__all__ names %r" % (info.name, missing)


def test_src_size_counts_the_package():
    # the size counts tracked beside the benchmarks, recounted from the
    # imported modules
    import nlhom

    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_size.py")],
                         capture_output=True, text=True, check=True)
    counts = json.loads(out.stdout)
    paths = sorted((ROOT / "src" / "nlhom").glob("*.py"))
    modules = [importlib.import_module("nlhom." + info.name)
               for info in pkgutil.iter_modules(nlhom.__path__)]
    assert counts["lines"] == sum(len(p.read_text().splitlines())
                                  for p in paths)
    assert counts["all_names"] == sum(len(getattr(m, "__all__", ()))
                                      for m in modules)
    assert counts["classes"] == sum(
        inspect.isclass(v) and v.__module__ == m.__name__
        for m in modules for v in vars(m).values())
    assert counts["defaulted_params"] > 0
    assert counts["defaulted_fields"] == sum(
        f.init and (f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING)
        for m in modules for v in vars(m).values()
        if inspect.isclass(v) and v.__module__ == m.__name__
        and dataclasses.is_dataclass(v) for f in dataclasses.fields(v))


def test_no_string_selected_modes():
    # a mode picked by a string default ("literal", "forward", ...) is a
    # second code path the lab does not run; the paper fixes one scaling
    # and one pairing per result, so each such fork must argue its case
    found = []
    for path in sorted((ROOT / "src" / "nlhom").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional)
                                        - len(args.defaults):],
                             args.defaults))
            pairs += list(zip(args.kwonlyargs, args.kw_defaults))
            found += ["%s:%d %s(%s=%r)" % (path.name, node.lineno, node.name,
                                           arg.arg, default.value)
                      for arg, default in pairs
                      if isinstance(default, ast.Constant)
                      and isinstance(default.value, str)]
    assert not found, found


def test_no_unused_imports():
    # an import nothing reads is a dependency the code no longer has; a
    # name listed in __all__ counts as read, and "# noqa" keeps a line
    found = []
    for path in sorted((ROOT / "src" / "nlhom").glob("*.py")) \
            + sorted((ROOT / "tests").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        nodes = list(ast.walk(ast.parse(source)))
        read = {node.id for node in nodes if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        read |= {item.value for node in nodes if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets]
                 == ["__all__"] for item in node.value.elts}
        found += ["%s:%d %s" % (path.name, node.lineno, name)
                  for node in nodes
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and "# noqa" not in lines[node.lineno - 1]
                  for name in (alias.asname or alias.name.split(".")[0]
                               for alias in node.names)
                  if name not in read]
    assert not found, found


# test-input builders: tests build their kernels and coefficient sets by them
TEST_INPUT_BUILDERS = {"laplace_kernel", "triangle_kernel",
                       "coefficient_set_by_name"}


def _caller_sources():
    """(path, syntax tree) of the package modules and the benchmark's
    non-test scripts: the code whose reads give a name a caller."""
    paths = sorted((ROOT / "src" / "nlhom").glob("*.py"))
    paths += [path for path in sorted((ROOT / "perfbench").glob("*.py"))
              if not path.name.startswith("test_")]
    return [(path, ast.parse(path.read_text())) for path in paths]


def _read_names(sources):
    """The names that sources read, as a variable or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for _, tree in sources for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_exports_have_callers():
    # an __all__ name that no package code and no benchmark code reads is an
    # entry point only its own tests call; names read as a variable or as an
    # attribute count, the benchmark's own tests do not
    sources = _caller_sources()
    exported = ["%s.%s" % (path.stem, item.value) for path, tree in sources
                for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["__all__"] for item in node.value.elts]
    read = _read_names(sources) | TEST_INPUT_BUILDERS
    unread = [name for name in exported if name.split(".")[1] not in read]
    assert exported and not unread, unread


def test_private_names_have_callers():
    # the private twin of test_exports_have_callers: a module-level _name
    # (function, class or constant) of the package that no package code and
    # no benchmark code reads lives on only for its own tests; dunders such
    # as __version__ are exempt
    sources = _caller_sources()
    defined = []
    for path, tree in sources:
        if path.parent.name != "nlhom":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Store)]
            else:
                continue
            defined += ["%s.%s" % (path.stem, name) for name in names
                        if name.startswith("_") and not (
                            name.startswith("__") and name.endswith("__"))]
    read = _read_names(sources)
    unread = [name for name in defined if name.split(".")[1] not in read]
    assert defined and not unread, unread


def test_digest_runs_the_workloads():
    # tools/digest.py hashes what every benchmark operation returns, at full
    # size; two runs of one checkout print the same lines
    cmd = [sys.executable, str(ROOT / "tools" / "digest.py")]
    runs = [subprocess.run(cmd, capture_output=True, text=True, check=True)
            .stdout for _ in range(2)]
    lines = runs[0].splitlines()
    assert runs[0] == runs[1]
    for prefix in ("cell setup[0] sigma ",
                   "cell part_I varcoef-1 n=512 m ",
                   "cell part_II stable-1 n=512 m1 ",
                   "line-diag part_I residual-I eps=1/64[1] ",
                   "line-diag part_II dissipativity-II eps=1/8 ",
                   "ensemble part_I ensemble-I[0] pairings ",
                   "ensemble part_II ensemble-II[1] snapshots ",
                   "particles part_I Q-MC varcoef-1[0] ",
                   "particles part_II signal stable-2 #3 positions "):
        assert any(line.startswith(prefix) for line in lines), prefix
    for line in lines:
        digest, top = line.split()[-2:]
        assert len(digest) == 64 and np.isfinite(float(top)), line


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


def _load_script(directory, name):
    spec = importlib.util.spec_from_file_location(
        "_%s_%s" % (directory, name), ROOT / directory / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_verdict_reads_synthetic_runs():
    # tools/ab.py's reading of paired runs: a gain needs 9 of 10 pairs won
    # (ties count for neither) and a median gap beyond the parent's
    # quartile distance; a spread parent leaves the metric unresolved
    # unless the sides do not overlap; a change that fails more operations
    # than the parent reads no gain
    verdict = _load_script("tools", "ab").verdict
    steady = 1.0 + 0.01 * np.sin(np.arange(10))
    wide = np.array([0.6, 0.7, 1.0, 1.3, 1.4] * 2)
    cases = [
        (steady, 0.8 * steady, "gain"),
        (steady, np.where(np.arange(10) == 0, steady, 0.8 * steady), "gain"),
        (steady, np.where(np.arange(10) < 2, steady, 0.8 * steady), "same"),
        (steady, np.where(np.arange(10) < 2, 1.1 * steady, 0.8 * steady),
         "same"),
        (steady, 0.995 * steady, "same"),
        (steady, 1.3 * steady, "worse"),
        (steady, 1.2 * steady, "same"),
        (wide, wide[::-1], "unresolved"),
        (wide, 1.5 * wide, "worse"),
        (wide, np.full(10, 0.55), "same"),
        (wide, np.full(10, 0.3), "gain"),
    ]
    for parent, change, expected in cases:
        assert verdict(parent, change, 0.25, (3, 3)) == expected, \
            (change, expected)
    assert verdict(steady, 0.8 * steady, 0.25, (0, 1)) == "same"
    assert verdict(steady, 0.8 * steady, 0.25, (1, 0)) == "gain"


def test_benchmark_trace_hooks_install_and_restore():
    # `perfbench/run.py --trace 1` wraps package functions by name, so a
    # rename in the package must fail here rather than in a traced run
    tracing = _load_script("perfbench", "tracing")
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


def test_benchmark_cell_trace_is_the_package_trace():
    # the benchmark checks line operators against its own subsampled
    # traces; on the ensemble and line-diag grids they are the package's
    checks = _load_script("perfbench", "checks")
    from nlhom import fixtures, lineops

    sets = [fixtures.varcoef_1(256), fixtures.stable_1(256),
            fixtures.stable_2(256)]
    fields = [getattr(cset, name) for cset in sets
              for name in ("a", "b", "lam", "sigma", "delta", "d", "e", "f",
                           "g") if hasattr(cset, name)]
    cases = [(lineops.LineGrid(2.0, 2048), 8)]
    cases += [(lineops.LineGrid(2.0, 4096), K) for K in (8, 16, 32, 64)]
    for grid, K in cases:
        p = grid.points_per_cell(1.0 / K)
        for field in fields:
            assert np.array_equal(checks.cell_trace(field, grid.n, p),
                                  lineops._cell_trace(field, grid, 1.0 / K))


@pytest.mark.parametrize("name", ["cell", "ensemble", "line-diag",
                                  "particles"])
def test_benchmark_workloads_run_small(name, monkeypatch):
    # the benchmark calls the package by name and keyword, so a removed
    # name or parameter must fail here rather than in a benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name](1, small=True)
    inputs = workload.setup()
    ops = workload.part_I(inputs).ops + workload.part_II(inputs).ops
    failed = ["%s: %s" % (op.name, "; ".join(op.problems)) for op in ops
              if op.problems and op.name not in workload.known_faults]
    assert ops and not failed, failed
