"""INI-style experiment configuration.

Sections: [domain] geometry, [coeff] diffusion field, [data] the datum f and
its load factor, [series] the coefficient sequence, [solver] tolerances and
iteration caps, [run] the approximation schedule.  Every key is validated and
errors name the offending section.key.  The raw file bytes are hashed so
outputs can state exactly which configuration produced them.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass

from .elliptic import (
    CoefficientField,
    EllipticProblem,
    Grid,
    GridFunction,
    build_grid,
    constant_field,
    ramp_field,
    read_gridfunction_csv,
)
from .errors import ConfigError
from .params import Tolerances
from .series import CoefficientSequence, make_sequence

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
    "series": {"kind", "ratio", "exponent", "values", "tail", "tail_exponent", "m_max", "tol"},
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

_DEFAULT_SCHEDULE = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration plus builders for the runtime objects."""

    path: str
    config_hash: str
    dim: int
    x0: float
    x1: float
    y0: float
    y1: float
    n_cells: int
    n_cells_y: int
    coeff_kind: str
    coeff_value: float
    coeff_base: float
    coeff_slope_x: float
    coeff_slope_y: float
    alpha: float | None
    beta: float | None
    f_kind: str
    f_value: float
    f_center_x: float
    f_center_y: float
    f_width: float
    f_amplitude: float
    f_path: str | None
    lambda_scale: float
    series_kind: str
    series_ratio: float | None
    series_exponent: float | None
    series_values: tuple[float, ...] | None
    series_tail: str | None
    series_tail_exponent: float | None
    tolerances: Tolerances
    n_schedule: tuple[int, ...]
    stop_tol: float

    def grid(self) -> Grid:
        return build_grid(
            self.dim,
            x_extent=(self.x0, self.x1),
            n_cells=self.n_cells,
            y_extent=(self.y0, self.y1),
            n_cells_y=self.n_cells_y,
        )

    def coefficient_field(self, grid: Grid) -> CoefficientField:
        if self.coeff_kind == "constant":
            f = constant_field(grid, self.coeff_value)
        else:
            f = ramp_field(
                grid,
                base=self.coeff_base,
                slope_x=self.coeff_slope_x,
                slope_y=self.coeff_slope_y,
            )
        if self.alpha is not None or self.beta is not None:
            f = CoefficientField(
                grid=grid,
                a1=f.a1,
                a2=f.a2,
                alpha=self.alpha if self.alpha is not None else 0.0,
                beta=self.beta if self.beta is not None else 0.0,
            )
        return f

    def data(self, grid: Grid) -> GridFunction:
        import numpy as np

        if self.f_kind == "constant":
            return GridFunction(
                grid=grid, values=np.full(grid.node_shape, self.f_value)
            )
        if self.f_kind == "bump":
            coords = grid.node_coordinates()
            r2 = (coords[0] - self.f_center_x) ** 2
            if grid.dim == 2:
                r2 = r2 + (coords[1] - self.f_center_y) ** 2
            vals = self.f_amplitude * np.exp(-r2 / (2.0 * self.f_width**2))
            return GridFunction(grid=grid, values=vals)
        return read_gridfunction_csv(self.f_path, grid)

    def problem(self) -> EllipticProblem:
        grid = self.grid()
        return EllipticProblem(
            grid=grid,
            field=self.coefficient_field(grid),
            f=self.data(grid),
            lambda_scale=self.lambda_scale,
        )

    def sequence(self) -> CoefficientSequence:
        return make_sequence(
            self.series_kind,
            ratio=self.series_ratio,
            exponent=self.series_exponent,
            values=self.series_values,
            tail=self.series_tail,
            tail_exponent=self.series_tail_exponent,
        )


class _SectionReader:
    """Typed accessors that blame section.key on any parse failure."""

    def __init__(self, parser: configparser.ConfigParser, section: str):
        self.section = section
        self.raw = dict(parser[section]) if parser.has_section(section) else {}
        unknown = set(self.raw) - _KNOWN_KEYS[section]
        if unknown:
            raise ConfigError(
                f"unknown key {section}.{sorted(unknown)[0]} in configuration"
            )

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

    def real_list(self, key, default=None):
        if key not in self.raw:
            return default
        toks = [t for t in self.raw[key].replace(",", " ").split() if t]
        try:
            return tuple(float(t) for t in toks)
        except ValueError:
            raise ConfigError(
                f"{self.section}.{key} must be a comma-separated list of reals"
            ) from None

    def int_list(self, key, default=None):
        if key not in self.raw:
            return default
        toks = [t for t in self.raw[key].replace(",", " ").split() if t]
        try:
            return tuple(int(t) for t in toks)
        except ValueError:
            raise ConfigError(
                f"{self.section}.{key} must be a comma-separated list of integers"
            ) from None


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

    dom = _SectionReader(parser, "domain")
    dim = dom.integer("dim", default=1)
    if dim not in (1, 2):
        raise ConfigError("domain.dim must be 1 or 2")
    x0 = dom.real("x0", default=0.0)
    x1 = dom.real("x1", default=1.0)
    y0 = dom.real("y0", default=x0)
    y1 = dom.real("y1", default=x1)
    n_cells = dom.integer("n_cells", default=128, minimum=4)
    n_cells_y = dom.integer("n_cells_y", default=n_cells, minimum=4)

    coeff = _SectionReader(parser, "coeff")
    coeff_kind = coeff.text("kind", default="constant", choices={"constant", "linear-ramp"})
    coeff_value = coeff.real("value", default=1.0, positive=True)
    coeff_base = coeff.real("base", default=1.0)
    slope_x = coeff.real("slope_x", default=0.0)
    slope_y = coeff.real("slope_y", default=0.0)
    alpha = coeff.real("alpha", positive=True)
    beta = coeff.real("beta", positive=True)

    data = _SectionReader(parser, "data")
    f_kind = data.text("kind", default="constant", choices={"constant", "bump", "file"})
    f_value = data.real("value", default=1.0)
    if f_value is not None and f_value < 0:
        raise ConfigError("data.value must be nonnegative")
    center_x = data.real("center_x", default=0.5 * (x0 + x1))
    center_y = data.real("center_y", default=0.5 * (y0 + y1))
    width = data.real("width", default=0.1, positive=True)
    amplitude = data.real("amplitude", default=1.0)
    if amplitude < 0:
        raise ConfigError("data.amplitude must be nonnegative")
    f_path = data.text("path")
    lambda_scale = data.real("lambda_scale", default=1.0, positive=True)
    if f_kind == "file":
        if not f_path:
            raise ConfigError("data.path is required when data.kind = file")
        if not os.path.isabs(f_path):
            f_path = os.path.join(os.path.dirname(os.path.abspath(path)), f_path)
        if not os.path.exists(f_path):
            raise ConfigError(f"data.path does not exist: {f_path}")

    ser = _SectionReader(parser, "series")
    series_kind = ser.text(
        "kind", choices={"harmonic", "log", "geometric", "power-law", "custom"}
    )
    if series_kind is None:
        raise ConfigError("series.kind is required")
    ratio = ser.real("ratio")
    exponent = ser.real("exponent")
    values = ser.real_list("values")
    tail = ser.text("tail", choices={"repeat-ratio", "power-law"})
    tail_exponent = ser.real("tail_exponent")
    m_max = ser.integer("m_max", default=256, minimum=16)
    series_tol = ser.real("tol", positive=True)

    sol = _SectionReader(parser, "solver")
    tols = Tolerances(
        tol_linear=sol.real("tol_linear", default=Tolerances.tol_linear, positive=True),
        tol_eig=sol.real("tol_eig", default=Tolerances.tol_eig, positive=True),
        tol_series=sol.real(
            "tol_series",
            default=series_tol if series_tol is not None else Tolerances.tol_series,
            positive=True,
        ),
        tol_invert=sol.real("tol_invert", default=Tolerances.tol_invert, positive=True),
        m_max=m_max,
        max_linear_iter=sol.integer("max_linear_iter", minimum=1),
        max_eig_iter=sol.integer("max_eig_iter", default=Tolerances.max_eig_iter, minimum=1),
        max_invert_iter=sol.integer(
            "max_invert_iter", default=Tolerances.max_invert_iter, minimum=1
        ),
    )
    tols.validate()

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
        dim=dim,
        x0=x0,
        x1=x1,
        y0=y0,
        y1=y1,
        n_cells=n_cells,
        n_cells_y=n_cells_y,
        coeff_kind=coeff_kind,
        coeff_value=coeff_value,
        coeff_base=coeff_base,
        coeff_slope_x=slope_x,
        coeff_slope_y=slope_y,
        alpha=alpha,
        beta=beta,
        f_kind=f_kind,
        f_value=f_value,
        f_center_x=center_x,
        f_center_y=center_y,
        f_width=width,
        f_amplitude=amplitude,
        f_path=f_path,
        lambda_scale=lambda_scale,
        series_kind=series_kind,
        series_ratio=ratio,
        series_exponent=exponent,
        series_values=values,
        series_tail=tail,
        series_tail_exponent=tail_exponent,
        tolerances=tols,
        n_schedule=schedule,
        stop_tol=stop_tol,
    )
