"""INI-style experiment configuration.

Sections: [domain] geometry, [coeff] diffusion field, [data] the datum f and
its load factor, [series] the coefficient sequence, [solver] tolerances and
iteration caps, [run] the approximation schedule.  Every key is validated and
errors name the offending section.key.  A section reads only the keys that its
kind, tail and the dim use; a key that nothing read is an error, so the reads
are the only list of keys.  Loading builds the problem (grid, coefficient
field, datum) and the sequence once.  The raw file bytes are hashed so outputs
can state exactly which configuration produced them.
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
from .params import Tolerances, check_schedule
from .series import TAILS, CoefficientSequence, make_sequence

_SECTIONS = ("domain", "coeff", "data", "series", "solver", "run")
_COEFF_KINDS = ("constant", "linear-ramp")
_DATA_KINDS = ("constant", "bump", "file")
_SERIES_KINDS = ("harmonic", "log", "geometric", "power-law", "custom")

_DEFAULT_SCHEDULE = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated configuration and the runtime objects built from it."""

    config_hash: str
    problem: EllipticProblem
    sequence: CoefficientSequence
    tolerances: Tolerances
    n_schedule: tuple[int, ...]
    stop_tol: float


class _SectionReader:
    """Typed accessors that blame section.key on any parse failure and note
    every key they look up, so that ``unread`` can reject the rest."""

    def __init__(self, parser: configparser.ConfigParser, section: str):
        self.section = section
        self.raw = dict(parser[section]) if parser.has_section(section) else {}
        self.read: set[str] = set()

    def unread(self, *deciding: str) -> None:
        """Fail on the first key set in the file that nothing looked up;
        ``deciding`` names the settings that chose which keys to read."""
        left = sorted(set(self.raw) - self.read)
        if left:
            when = f" when {', '.join(deciding)}" if deciding else ""
            raise ConfigError(f"{self.section}.{left[0]} is not read{when}")

    def _get(self, key, cast, default, kind):
        self.read.add(key)
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
        self.read.add(key)
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
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}] in configuration")

    dom = _SectionReader(parser, "domain")
    dim = dom.integer("dim", default=1)
    x_extent = (dom.real("x0", default=0.0), dom.real("x1", default=1.0))
    y_axis = {}
    if dim == 2:
        y_axis["y_extent"] = (
            dom.real("y0", default=x_extent[0]),
            dom.real("y1", default=x_extent[1]),
        )
        y_axis["n_cells_y"] = dom.integer("n_cells_y", minimum=4)
    grid = build_grid(
        dim, x_extent, dom.integer("n_cells", default=128, minimum=4), **y_axis
    )
    dom.unread(f"domain.dim = {dim}")

    coeff = _SectionReader(parser, "coeff")
    c_kind = coeff.text("kind", default="constant", choices=_COEFF_KINDS)
    if c_kind == "constant":
        ramp = {"base": coeff.real("value", default=1.0, positive=True)}
    else:
        ramp = {"base": coeff.real("base", default=1.0)}
        for name, _ in zip("xy", grid.axes):
            ramp[f"slope_{name}"] = coeff.real(f"slope_{name}", default=0.0)
    alpha = coeff.real("alpha", positive=True) or 0.0
    beta = coeff.real("beta", positive=True) or 0.0
    coeff.unread(f"coeff.kind = {c_kind}", f"domain.dim = {dim}")
    field = ramp_field(grid, **ramp, alpha=alpha, beta=beta)

    data = _SectionReader(parser, "data")
    f_kind = data.text("kind", default="constant", choices=_DATA_KINDS)
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
        centre = [
            data.real(f"center_{name}", default=0.5 * (a.lo + a.hi))
            for name, a in zip("xy", grid.axes)
        ]
        r2 = sum((c - c0) ** 2 for c, c0 in zip(grid.node_coordinates(), centre))
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
    lambda_scale = data.real("lambda_scale", default=1.0)
    data.unread(f"data.kind = {f_kind}", f"domain.dim = {dim}")
    problem = EllipticProblem(grid=grid, field=field, f=f, lambda_scale=lambda_scale)

    ser = _SectionReader(parser, "series")
    series_kind = ser.text("kind", choices=_SERIES_KINDS)
    if series_kind is None:
        raise ConfigError("series.kind is required")
    m_max = ser.integer("m_max", default=Tolerances.m_max)
    deciding = [f"series.kind = {series_kind}"]
    params = {}
    if series_kind == "geometric":
        params["ratio"] = ser.real("ratio")
    elif series_kind == "power-law":
        params["exponent"] = ser.real("exponent")
    elif series_kind == "custom":
        tail = ser.text("tail", default="repeat-ratio", choices=TAILS)
        params = {"values": ser.real_list("values"), "tail": tail}
        if tail == "power-law":
            params["tail_exponent"] = ser.real("tail_exponent")
        deciding.append(f"series.tail = {tail}")
    ser.unread(*deciding)
    sequence = make_sequence(series_kind, **params)

    sol = _SectionReader(parser, "solver")
    solver = {
        name: sol.real(name, default=getattr(Tolerances, name))
        for name in ("tol_linear", "tol_eig", "tol_series", "tol_invert")
    }
    for name in ("max_linear_iter", "max_eig_iter", "max_invert_iter"):
        solver[name] = sol.integer(name, default=getattr(Tolerances, name))
    sol.unread()
    tols = Tolerances(m_max=m_max, **solver)

    run = _SectionReader(parser, "run")
    schedule = run.int_list("n_schedule", default=_DEFAULT_SCHEDULE)
    stop_tol = run.real("stop_tol", default=1e-8)
    run.unread()
    check_schedule(schedule, stop_tol)

    return ExperimentConfig(
        config_hash=digest,
        problem=problem,
        sequence=sequence,
        tolerances=tols,
        n_schedule=schedule,
        stop_tol=stop_tol,
    )
