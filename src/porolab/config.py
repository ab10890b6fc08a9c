"""INI-style experiment configuration.

Sections: [domain] geometry, [coeff] diffusion field, [data] the datum f and
its load factor, [series] the coefficient sequence, [solver] tolerances and
iteration caps, [run] the approximation schedule.  Every key is validated and
errors name the offending section.key; a key that the chosen kind (or a 1D
grid) does not read is an error too.  Loading builds the problem (grid,
coefficient field, datum) and the sequence once.  The raw file bytes are
hashed so outputs can state exactly which configuration produced them.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .elliptic import (
    EllipticProblem,
    GridFunction,
    build_grid,
    ramp_field,
    read_gridfunction_csv,
)
from .errors import ConfigError
from .params import Tolerances
from .series import TAILS, CoefficientSequence, make_sequence

_KNOWN_KEYS = {
    "domain": {"dim", "x0", "x1", "y0", "y1", "n_cells", "n_cells_y"},
    "coeff": {"kind", "value", "base", "slope_x", "slope_y", "alpha", "beta"},
    "data": {
        "kind",
        "value",
        "center_x",
        "center_y",
        "width",
        "amplitude",
        "path",
        "lambda_scale",
    },
    "series": {"kind", "ratio", "exponent", "values", "tail", "tail_exponent", "m_max"},
    "solver": {
        "tol_linear",
        "tol_eig",
        "tol_series",
        "tol_invert",
        "max_linear_iter",
        "max_eig_iter",
        "max_invert_iter",
    },
    "run": {"n_schedule", "stop_tol"},
}

# keys that only some kinds of a section read, and keys that only a 2D grid
# reads; set anywhere else they would drive nothing, so loading rejects them
_KIND_KEYS = {
    "coeff": {"constant": {"value"}, "linear-ramp": {"base", "slope_x", "slope_y"}},
    "data": {
        "constant": {"value"},
        "bump": {"center_x", "center_y", "width", "amplitude"},
        "file": {"path"},
    },
    "series": {
        "harmonic": set(),
        "log": set(),
        "geometric": {"ratio"},
        "power-law": {"exponent"},
        "custom": {"values", "tail", "tail_exponent"},
    },
}
_2D_KEYS = {"domain": {"y0", "y1", "n_cells_y"}, "coeff": {"slope_y"}, "data": {"center_y"}}

_DEFAULT_SCHEDULE = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated configuration and the runtime objects built from it."""

    path: str
    config_hash: str
    problem: EllipticProblem
    sequence: CoefficientSequence
    tolerances: Tolerances
    n_schedule: tuple[int, ...]
    stop_tol: float


class _SectionReader:
    """Typed accessors that blame section.key on any parse failure."""

    def __init__(self, parser: configparser.ConfigParser, section: str, dim=2):
        self.section = section
        self.raw = dict(parser[section]) if parser.has_section(section) else {}
        unknown = set(self.raw) - _KNOWN_KEYS[section]
        if unknown:
            raise ConfigError(
                f"unknown key {section}.{sorted(unknown)[0]} in configuration"
            )
        if dim == 1:
            self.reject(_2D_KEYS.get(section, set()), "domain.dim = 1")

    def reject(self, keys: set[str], when: str) -> None:
        """Fail on the first of ``keys`` that is set: nothing reads it ``when``."""
        unread = sorted(keys & set(self.raw))
        if unread:
            raise ConfigError(f"{self.section}.{unread[0]} is not read when {when}")

    def kind(self, default=None):
        """The section's kind; a key that only other kinds read is an error."""
        table = _KIND_KEYS[self.section]
        val = self.text("kind", default=default, choices=set(table))
        if val is not None:
            others = set().union(*table.values()) - table[val]
            self.reject(others, f"{self.section}.kind = {val}")
        return val

    def _get(self, key, cast, default, kind):
        if key not in self.raw:
            return default
        text = self.raw[key].strip()
        try:
            return cast(text)
        except ValueError:
            raise ConfigError(
                f"{self.section}.{key} must be {kind} (got {text!r})"
            ) from None

    def text(self, key, default=None, choices=None):
        val = self._get(key, str, default, "a string")
        if val is not None and choices is not None and val not in choices:
            raise ConfigError(
                f"{self.section}.{key} must be one of {sorted(choices)} (got {val!r})"
            )
        return val

    def real(self, key, default=None, positive=False):
        val = self._get(key, float, default, "a real number")
        if val is not None and not math.isfinite(val):
            raise ConfigError(f"{self.section}.{key} must be finite")
        if positive and val is not None and val <= 0:
            raise ConfigError(f"{self.section}.{key} must be positive")
        return val

    def integer(self, key, default=None, minimum=None):
        val = self._get(key, int, default, "an integer")
        if val is not None and minimum is not None and val < minimum:
            raise ConfigError(f"{self.section}.{key} must be at least {minimum}")
        return val

    def _list(self, key, cast, kind, default):
        if key not in self.raw:
            return default
        toks = [t for t in self.raw[key].replace(",", " ").split() if t]
        try:
            return tuple(cast(t) for t in toks)
        except ValueError:
            raise ConfigError(
                f"{self.section}.{key} must be a comma-separated list of {kind}"
            ) from None

    def real_list(self, key, default=None):
        return self._list(key, float, "reals", default)

    def int_list(self, key, default=None):
        return self._list(key, int, "integers", default)


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate; all value errors carry the section.key name."""
    if not os.path.exists(path):
        raise ConfigError(f"configuration file not found: {path}")
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(raw.decode("utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}] in configuration")

    dim = _SectionReader(parser, "domain").integer("dim", default=1)
    if dim not in (1, 2):
        raise ConfigError("domain.dim must be 1 or 2")
    dom = _SectionReader(parser, "domain", dim)
    x0 = dom.real("x0", default=0.0)
    x1 = dom.real("x1", default=1.0)
    y0 = dom.real("y0", default=x0)
    y1 = dom.real("y1", default=x1)
    grid = build_grid(
        dim,
        x_extent=(x0, x1),
        n_cells=dom.integer("n_cells", default=128, minimum=4),
        y_extent=(y0, y1),
        n_cells_y=dom.integer("n_cells_y", minimum=4),
    )

    coeff = _SectionReader(parser, "coeff", dim)
    if coeff.kind(default="constant") == "constant":
        ramp = {"base": coeff.real("value", default=1.0, positive=True)}
    else:
        ramp = {
            "base": coeff.real("base", default=1.0),
            "slope_x": coeff.real("slope_x", default=0.0),
            "slope_y": coeff.real("slope_y", default=0.0),
        }
    field = ramp_field(
        grid,
        **ramp,
        alpha=coeff.real("alpha", positive=True) or 0.0,
        beta=coeff.real("beta", positive=True) or 0.0,
    )

    data = _SectionReader(parser, "data", dim)
    f_kind = data.kind(default="constant")
    if f_kind == "constant":
        f_value = data.real("value", default=1.0)
        if f_value < 0:
            raise ConfigError("data.value must be nonnegative")
        f = GridFunction(grid=grid, values=np.full(grid.node_shape, f_value))
    elif f_kind == "bump":
        width = data.real("width", default=0.1, positive=True)
        amplitude = data.real("amplitude", default=1.0)
        if amplitude < 0:
            raise ConfigError("data.amplitude must be nonnegative")
        coords = grid.node_coordinates()
        r2 = (coords[0] - data.real("center_x", default=0.5 * (x0 + x1))) ** 2
        if grid.dim == 2:
            r2 = r2 + (coords[1] - data.real("center_y", default=0.5 * (y0 + y1))) ** 2
        f = GridFunction(grid=grid, values=amplitude * np.exp(-r2 / (2.0 * width**2)))
    else:
        f_path = data.text("path")
        if not f_path:
            raise ConfigError("data.path is required when data.kind = file")
        if not os.path.isabs(f_path):
            f_path = os.path.join(os.path.dirname(os.path.abspath(path)), f_path)
        if not os.path.exists(f_path):
            raise ConfigError(f"data.path does not exist: {f_path}")
        f = read_gridfunction_csv(f_path, grid)
    lambda_scale = data.real("lambda_scale", default=1.0, positive=True)
    problem = EllipticProblem(grid=grid, field=field, f=f, lambda_scale=lambda_scale)

    ser = _SectionReader(parser, "series")
    series_kind = ser.kind()
    if series_kind is None:
        raise ConfigError("series.kind is required")
    m_max = ser.integer("m_max", default=256, minimum=16)
    tail = ser.text("tail", choices=set(TAILS))
    if tail != "power-law":
        ser.reject({"tail_exponent"}, "series.tail = repeat-ratio")
    sequence = make_sequence(
        series_kind,
        ratio=ser.real("ratio"),
        exponent=ser.real("exponent"),
        values=ser.real_list("values"),
        tail=tail,
        tail_exponent=ser.real("tail_exponent"),
    )

    sol = _SectionReader(parser, "solver")
    tols = Tolerances(
        tol_linear=sol.real("tol_linear", default=Tolerances.tol_linear, positive=True),
        tol_eig=sol.real("tol_eig", default=Tolerances.tol_eig, positive=True),
        tol_series=sol.real("tol_series", default=Tolerances.tol_series, positive=True),
        tol_invert=sol.real("tol_invert", default=Tolerances.tol_invert, positive=True),
        m_max=m_max,
        max_linear_iter=sol.integer("max_linear_iter", minimum=1),
        max_eig_iter=sol.integer("max_eig_iter", default=Tolerances.max_eig_iter, minimum=1),
        max_invert_iter=sol.integer(
            "max_invert_iter", default=Tolerances.max_invert_iter, minimum=1
        ),
    )

    run = _SectionReader(parser, "run")
    schedule = run.int_list("n_schedule", default=_DEFAULT_SCHEDULE)
    if not schedule or any(n < 1 for n in schedule) or any(
        b <= a for a, b in zip(schedule, schedule[1:])
    ):
        raise ConfigError("run.n_schedule must be strictly increasing positive integers")
    stop_tol = run.real("stop_tol", default=1e-8, positive=True)

    return ExperimentConfig(
        path=os.path.abspath(path),
        config_hash=digest,
        problem=problem,
        sequence=sequence,
        tolerances=tols,
        n_schedule=schedule,
        stop_tol=stop_tol,
    )
