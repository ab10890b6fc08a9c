"""Solver tolerances and iteration caps, shared by all modules."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class Tolerances:
    """Bundle of tolerances and caps used throughout a diagnosis/run.

    The one place that states a solver setting: every function that iterates
    or certifies takes a ``tols`` bundle.  ``max_linear_iter = None`` means
    10x the number of interior unknowns (``linear_cap``).
    Every value is checked once, when the bundle is built.
    """

    tol_linear: float = 1e-12
    tol_eig: float = 1e-10
    tol_series: float = 1e-8
    tol_invert: float = 1e-12
    m_max: int = 256
    max_linear_iter: int | None = None
    max_eig_iter: int = 500
    max_invert_iter: int = 200

    def __post_init__(self) -> None:
        for name in ("tol_linear", "tol_eig", "tol_series", "tol_invert"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails both
                raise ConfigError(f"solver.{name} must be positive and finite")
        for key, least in (
            ("series.m_max", 16),
            ("solver.max_linear_iter", 1),
            ("solver.max_eig_iter", 1),
            ("solver.max_invert_iter", 1),
        ):
            cap = getattr(self, key.partition(".")[2])
            if cap is None and key == "solver.max_linear_iter":
                continue
            if type(cap) is not int:  # a bool, float or numpy scalar fails deep in a solver
                raise ConfigError(f"{key} must be an integer")
            if cap < least:
                raise ConfigError(f"{key} must be at least {least}")

    @property
    def classification_band(self) -> float:
        # Relative half-width of the indeterminate band around each threshold;
        # keeps a load factor equal to a threshold from being classified by
        # float luck.
        return 10.0 * (self.tol_linear + self.tol_eig + self.tol_series)

    def linear_cap(self, n_interior: int) -> int:
        """Conjugate-gradient iteration cap for ``n_interior`` unknowns."""
        return 10 * n_interior if self.max_linear_iter is None else self.max_linear_iter


def check_order(n, name: str = "n") -> int:
    """The rule for an approximation order: a Python or numpy integer >= 1,
    returned as ``int``.  A bool or a float is not an order."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"{name} must be an integer >= 1")
    return int(n)


def check_schedule(n_schedule, stop_tol: float) -> list[int]:
    """The rule for an approximation schedule and its stop tolerance; returns
    the schedule as a list of ``int``."""
    try:
        schedule = [check_order(n) for n in n_schedule]
    except ValueError:
        schedule = []
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError("run.n_schedule must be strictly increasing positive integers")
    if not stop_tol > 0:
        raise ConfigError("run.stop_tol must be positive")
    return schedule
