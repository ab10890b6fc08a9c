"""Tolerance bundle validation and the public package surface."""

import ast
import importlib
from pathlib import Path

import pytest

import porolab
from porolab.errors import ConfigError, PorolabError
from porolab.params import Tolerances


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
        "lambda_sweep",
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
