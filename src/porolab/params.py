"""Solver tolerances and iteration caps, shared by all modules."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class Tolerances:
    """Bundle of tolerances and caps used throughout a diagnosis/run.

    ``max_linear_iter = None`` means 10x the number of interior unknowns.
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
            if getattr(self, name) <= 0:
                raise ConfigError(f"solver.{name} must be positive")
        if self.m_max < 16:
            raise ConfigError("series.m_max must be at least 16")
        for name in ("max_linear_iter", "max_eig_iter", "max_invert_iter"):
            cap = getattr(self, name)
            if cap is not None and cap < 1:
                raise ConfigError(f"solver.{name} must be at least 1")

    @property
    def classification_band(self) -> float:
        # Relative half-width of the indeterminate band around each threshold;
        # keeps a load factor equal to a threshold from being classified by
        # float luck.
        return 10.0 * (self.tol_linear + self.tol_eig + self.tol_series)
