"""Tolerance bundle validation and the public package surface."""

import ast
import contextlib
import dataclasses
import importlib
import importlib.util
import inspect
import io
import json
import math
from pathlib import Path

import pytest

import porolab
from porolab.cli import entry
from porolab.errors import ConfigError, PorolabError
from porolab.params import Tolerances
from porolab.pipeline import ApproximationRun
from porolab.spectral import EigenPair


def test_defaults_validate():
    t = Tolerances()  # checked when built
    assert t.tol_linear == 1e-12
    assert t.tol_eig == 1e-10
    assert t.tol_series == 1e-8
    assert t.m_max == 256


def test_classification_band_definition():
    t = Tolerances()
    assert t.classification_band == pytest.approx(10 * (1e-12 + 1e-10 + 1e-8))
    wide = Tolerances(tol_series=1e-4)
    assert wide.classification_band > t.classification_band


@pytest.mark.parametrize(
    "kwargs,key",
    [
        ({"tol_linear": 0.0}, "tol_linear"),
        ({"tol_eig": -1e-9}, "tol_eig"),
        ({"tol_series": 0.0}, "tol_series"),
        ({"tol_invert": -1.0}, "tol_invert"),
        ({"m_max": 8}, "m_max"),
        ({"max_eig_iter": 0}, "max_eig_iter"),
        ({"max_invert_iter": 0}, "max_invert_iter"),
        ({"tol_eig": 0.0}, "tol_eig"),
        ({"tol_linear": math.inf}, "tol_linear"),
        ({"tol_eig": math.inf}, "tol_eig"),
        ({"tol_linear": math.nan}, "tol_linear"),
        ({"tol_invert": math.nan}, "tol_invert"),
        ({"max_eig_iter": 2.5}, "max_eig_iter"),
        ({"m_max": 100.5}, "m_max"),
        ({"max_linear_iter": math.inf}, "max_linear_iter"),
        ({"max_invert_iter": math.nan}, "max_invert_iter"),
        ({"max_eig_iter": True}, "max_eig_iter"),
    ],
)
def test_validate_names_the_key(kwargs, key):
    with pytest.raises(ConfigError, match=key):
        Tolerances(**kwargs)


def test_errors_share_a_base():
    for name in (
        "InvalidSequence",
        "NoConvergence",
        "DomainError",
        "ConfigError",
        "EllipticityError",
        "InvalidWeight",
        "BoundaryViolation",
    ):
        cls = getattr(porolab, name)
        assert issubclass(cls, PorolabError)


def test_top_level_exports():
    for name in (
        "build_grid",
        "solve_linear",
        "principal_eigenpair",
        "diagnose",
        "classify",
        "converge",
        "flat_zone",
        "harmonic",
        "log_kind",
        "boundary_sum",
        "q_partial_inverse",
        "load_config",
        "Tolerances",
    ):
        assert hasattr(porolab, name), name
    assert porolab.__version__ == "0.1.0"


def test_every_exported_name_resolves():
    # a stale entry in __all__ would only break `from porolab import *`
    assert [name for name in porolab.__all__ if not hasattr(porolab, name)] == []
    assert len(set(porolab.__all__)) == len(porolab.__all__)


def test_solver_settings_come_only_from_tolerances():
    # a solver reads its settings from one Tolerances bundle, never from a
    # parameter of its own
    per_call = {"tol", "inner_tol", "max_iter", "max_linear_iter", "m_max"}
    found = []
    for name in porolab.__all__:
        obj = getattr(porolab, name)
        if not callable(obj) or obj is Tolerances:
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # the exception classes have no Python signature
            continue
        found += [(name, p) for p in params if p in per_call]
    assert found == []
    # the positions that the benchmark's tracer reads
    assert list(inspect.signature(porolab.q_partial_inverse).parameters)[2] == "y"
    assert list(inspect.signature(porolab.write_gridfunction_csv).parameters)[1] == "path"


def test_traced_names_resolve():
    # the benchmark's tracer rebinds these names; a refactor that drops one
    # would leave its layer untimed
    tracer = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("TARGETS", "CG_TARGETS")
    }
    assert tables["TARGETS"] and tables["CG_TARGETS"]
    names = [(module, attr) for module, attr, *_ in tables["TARGETS"]]
    names += [(module, "cg") for module, _ in tables["CG_TARGETS"]]
    for module, attr in names:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    # the result fields that the tracer counts after a call returns
    assert "sup_history" in {f.name for f in dataclasses.fields(ApproximationRun)}
    assert "iterations" in {f.name for f in dataclasses.fields(EigenPair)}


def test_every_traced_name_is_called(tmp_path):
    # each layer the benchmark times must still run in some command: the four
    # commands of one golden case call every traced name and fire both CG
    # counters
    root = Path(__file__).parents[1]
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracer", root / "perfbench" / "tracer.py"
    )
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    golden = root / "tests" / "golden"
    expected = json.loads((golden / "zeta3-line-flat.expected.json").read_text())
    tracer = tracer_mod.Tracer()
    roots = set()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        for command, case in expected.items():
            span = tracer.open(tracer_mod.COMMAND_PREFIX + command)
            argv = [command, "--config", str(golden / "zeta3-line-flat.ini"), *case["args"]]
            assert entry([*argv, "--out", str(tmp_path / f"{command}.out")]) == 0
            tracer.close(span)
            roots.add(span)
    totals = tracer.totals(roots)
    silent = [name for _, _, name, _ in tracer_mod.TARGETS if not totals.get(f"{name}_calls")]
    silent += [key for _, key in tracer_mod.CG_TARGETS if not totals.get(key)]
    assert silent == []


def test_private_series_names_stay_in_series():
    # other modules evaluate Q through the public API, never through a
    # helper such as _horner
    src = Path(porolab.__file__).parent
    private = set()
    for node in ast.parse((src / "series.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            private.add(node.name)
        elif isinstance(node, ast.Assign):
            private.update(t.id for t in node.targets if isinstance(t, ast.Name))
    private = {name for name in private if name.startswith("_")}
    assert {"_horner", "_horner_with_derivative"} <= private
    reads = []
    for path in sorted(src.glob("*.py")):
        if path.name == "series.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("series"):
                names = [alias.name for alias in node.names]
            else:
                names = []
            reads += [(path.name, name) for name in names if name in private]
    assert reads == []


_PER_AXIS_NAMES = {"nx", "ny", "hx", "hy", "x0", "x1", "y0", "y1", "xs", "ys", "ax", "ay"}


def test_consumers_loop_over_grid_axes():
    # a grid is a tuple of axes: the modules above elliptic reach an axis
    # only through Grid.axes, and none of them branches on the dimension
    src = Path(porolab.__file__).parent
    found = []
    for name in ("pipeline.py", "analysis.py", "spectral.py", "cli.py"):
        for node in ast.walk(ast.parse((src / name).read_text())):
            if isinstance(node, ast.Attribute) and node.attr in _PER_AXIS_NAMES:
                found.append((name, node.lineno, node.attr))
            elif isinstance(node, ast.Compare) and any(
                isinstance(side, ast.Attribute) and side.attr == "dim"
                for side in (node.left, *node.comparators)
            ):
                found.append((name, node.lineno, "dim compared"))
    assert found == []


_THRESHOLDS = {"lambda_exist", "lambda_nonexist"}


def test_only_classify_compares_thresholds():
    # analysis.classify is the one verdict rule: no other function compares
    # an expression that reads a threshold, so a second rule cannot grow back
    src = Path(porolab.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef) or (path.name, func.name) == (
                "analysis.py",
                "classify",
            ):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Compare) and _THRESHOLDS & {
                    getattr(sub, "id", getattr(sub, "attr", None)) for sub in ast.walk(node)
                }:
                    found.append((path.name, func.name, node.lineno))
    assert found == []
