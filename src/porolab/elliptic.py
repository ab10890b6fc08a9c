"""Uniform-grid discretization of -div(A(x) grad v) on an interval or rectangle.

A grid is a tuple of axes, x first; every quantity on it is one expression or
one loop over its axes, the same code in 1D and 2D.  Homogeneous Dirichlet
conditions, diagonal coefficient tensor diag(a_x(x), a_y(y)) given as one
nodal profile per axis, flux-form stencil with arithmetic-mean face
coefficients: each axis adds its 3-point stencil, so the 2D matrix is the
Kronecker sum I (x) T_x + T_y (x) I of the two 1D matrices, up to the
rounding of its diagonal sums.  The assembled matrix over interior nodes is a
symmetric M-matrix, so the discrete maximum principle holds: nonnegative
data give nonnegative solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg

from .errors import (
    BoundaryViolation,
    ConfigError,
    EllipticityError,
    InvalidWeight,
    NoConvergence,
)
from .params import Tolerances

_AXIS_NAMES = "xy"


@dataclass(frozen=True)
class Axis:
    """Uniform nodes from lo to hi: n cells, n + 1 nodes."""

    lo: float
    hi: float
    n: int

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n + 1)


@dataclass(frozen=True)
class Grid:
    """Uniform node grid on the product of its axes, x first.

    Nodal arrays index the axes in reverse, [i] in 1D and [j, i] in 2D (rows
    sweep y), so flattened node order is row-major by y then x.
    """

    axes: tuple[Axis, ...]

    def __post_init__(self):
        if len(self.axes) not in (1, 2):
            raise ConfigError("domain.dim must be 1 or 2")

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def h_max(self) -> float:
        return max(a.h for a in self.axes)

    @property
    def cell_volume(self) -> float:
        return math.prod(a.h for a in self.axes)

    @property
    def node_shape(self) -> tuple[int, ...]:
        return tuple(a.n + 1 for a in reversed(self.axes))

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.node_shape))

    @property
    def interior_shape(self) -> tuple[int, ...]:
        return tuple(a.n - 1 for a in reversed(self.axes))

    @property
    def n_interior(self) -> int:
        return int(np.prod(self.interior_shape))

    def interior_slice(self) -> tuple[slice, ...]:
        return tuple(slice(1, a.n) for a in reversed(self.axes))

    def boundary_mask(self) -> np.ndarray:
        mask = np.ones(self.node_shape, dtype=bool)
        mask[self.interior_slice()] = False
        return mask

    def node_coordinates(self) -> tuple[np.ndarray, ...]:
        """Nodal coordinate arrays, x first, each shaped like nodal values."""
        return tuple(np.meshgrid(*(a.nodes for a in self.axes)))


def build_grid(
    dim: int,
    x_extent: tuple[float, float] = (0.0, 1.0),
    n_cells: int = 128,
    y_extent: tuple[float, float] | None = None,
    n_cells_y: int | None = None,
) -> Grid:
    """Uniform grid; node coordinates are a pure function of the arguments.

    The y axis defaults to the x extent and cell count."""
    if dim not in (1, 2):
        raise ConfigError("domain.dim must be 1 or 2")
    extents = (x_extent, x_extent if y_extent is None else y_extent)
    cells = (n_cells, n_cells if n_cells_y is None else n_cells_y)
    axes = []
    for name, (lo, hi), n in zip(_AXIS_NAMES[:dim], extents, cells):
        lo, hi = float(lo), float(hi)
        if not hi > lo:
            raise ConfigError(f"domain {name} extent is degenerate (need {name}1 > {name}0)")
        if n < 4:
            raise ConfigError("domain.n_cells must be at least 4 per axis")
        axes.append(Axis(lo, hi, int(n)))
    return Grid(tuple(axes))


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Diagonal coefficient tensor as one nodal profile per axis.

    ``profiles[k]`` (one value per node of axis k) multiplies the flux along
    axis k; each is stored read-only.  [alpha, beta] is the declared
    ellipticity window; every value must be finite and lie inside it.
    """

    grid: Grid
    profiles: tuple[np.ndarray, ...]
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if len(self.profiles) != self.grid.dim:
            raise EllipticityError("need one coefficient profile per axis")
        profiles = []
        for name, axis, a in zip(_AXIS_NAMES, self.grid.axes, self.profiles):
            a = np.array(a, dtype=float)
            if a.shape != (axis.n + 1,):
                raise EllipticityError(
                    f"coefficient profile a{name} needs {axis.n + 1} values"
                )
            if not np.all(np.isfinite(a)):
                raise EllipticityError(f"coefficient profile a{name} is not finite")
            a.setflags(write=False)
            profiles.append(a)
        object.__setattr__(self, "profiles", tuple(profiles))
        lo = float(min(a.min() for a in profiles))
        hi = float(max(a.max() for a in profiles))
        object.__setattr__(self, "alpha", float(self.alpha if self.alpha > 0 else lo))
        object.__setattr__(self, "beta", float(self.beta if self.beta > 0 else hi))
        if not (0 < self.alpha <= self.beta):
            raise EllipticityError(
                f"ellipticity window [{self.alpha:g}, {self.beta:g}] is invalid"
            )
        if lo < self.alpha or hi > self.beta:
            raise EllipticityError(
                f"nodal coefficient range [{lo:g}, {hi:g}] leaves "
                f"[{self.alpha:g}, {self.beta:g}]"
            )


def ramp_field(
    grid: Grid,
    base: float = 1.0,
    slope_x: float = 0.0,
    slope_y: float = 0.0,
    alpha: float = 0.0,
    beta: float = 0.0,
) -> CoefficientField:
    """a_x = base + slope_x * x, a_y = base + slope_y * y."""
    profiles = tuple(base + slope * a.nodes for slope, a in zip((slope_x, slope_y), grid.axes))
    return CoefficientField(grid, profiles, alpha, beta)


def constant_field(grid: Grid, value: float = 1.0) -> CoefficientField:
    return ramp_field(grid, base=value)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Nodal values on a grid; Dirichlet outputs carry exact zeros on the rim."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=float).reshape(self.grid.node_shape)
        )

    @classmethod
    def from_interior(cls, grid: Grid, interior: np.ndarray) -> "GridFunction":
        vals = np.zeros(grid.node_shape)
        vals[grid.interior_slice()] = np.asarray(interior, dtype=float).reshape(
            grid.interior_shape
        )
        return cls(grid=grid, values=vals)

    @classmethod
    def zero(cls, grid: Grid) -> "GridFunction":
        return cls(grid=grid, values=np.zeros(grid.node_shape))

    def interior(self) -> np.ndarray:
        """Flat interior vector in row-major (y then x) order."""
        return self.values[self.grid.interior_slice()].ravel()

    def boundary_values(self) -> np.ndarray:
        return self.values[self.grid.boundary_mask()]

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(grid=self.grid, values=c * self.values)


@dataclass(frozen=True, eq=False)
class EllipticProblem:
    """Datum and coefficients for -div(A grad v) = lambda_scale * f, v = 0 on the rim."""

    grid: Grid
    field: CoefficientField
    f: GridFunction
    lambda_scale: float = 1.0

    def __post_init__(self):
        if self.field.grid is not self.grid and self.field.grid != self.grid:
            raise ConfigError("coefficient field grid does not match problem grid")
        if self.f.grid is not self.grid and self.f.grid != self.grid:
            raise ConfigError("data grid does not match problem grid")
        if not np.all((self.f.values >= 0) & (self.f.values < np.inf)):  # NaN fails both
            raise InvalidWeight("data f must be finite and nonnegative at every node")
        if not self.lambda_scale > 0:
            raise ConfigError("data.lambda_scale must be positive")

    def rhs(self) -> GridFunction:
        return self.f.scaled(self.lambda_scale)


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """Matrix of -div(A grad .): CSR over interior nodes in row-major order."""

    grid: Grid
    matrix: sp.csr_matrix


def _couplings(a: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Couplings of each interior node on one axis to its lower and upper
    neighbour: arithmetic-mean face coefficients over h^2."""
    face = 0.5 * (a[:-1] + a[1:])  # face j sits between nodes j, j+1
    inv_h2 = 1.0 / h**2
    return face[:-1] * inv_h2, face[1:] * inv_h2


def assemble_operator(grid: Grid, field: CoefficientField) -> SparseOperator:
    """Flux-form stencil with arithmetic-mean face coefficients, Dirichlet rows
    eliminated.  Result is symmetric with M-matrix sign pattern."""
    if field.grid != grid:
        raise EllipticityError("coefficient field grid does not match")
    shape = grid.interior_shape
    diag = np.zeros(shape)
    bands = {}
    stride = 1  # flat distance between neighbours along the axis
    for k, (axis, a) in enumerate(zip(grid.axes, field.profiles)):
        # couplings of each interior node to its neighbours along axis k,
        # which is array axis -1 - k
        lower, upper = (
            np.broadcast_to(c.reshape(-1, *(1,) * k), shape).copy()
            for c in _couplings(a, axis.h)
        )
        diag += lower
        diag += upper
        # the first lower and the last upper neighbour on each line sit on
        # the rim, not in the flat order; sp.diags drops these zeros
        np.moveaxis(lower, -1 - k, 0)[0] = 0.0
        np.moveaxis(upper, -1 - k, 0)[-1] = 0.0
        bands[-stride] = -lower.ravel()[stride:]
        bands[stride] = -upper.ravel()[:-stride]
        stride *= axis.n - 1
    bands[0] = diag.ravel()
    offsets = sorted(bands)
    mat = sp.diags([bands[o] for o in offsets], offsets=offsets, format="csr")
    return SparseOperator(grid=grid, matrix=mat)


def solve_linear(
    op: SparseOperator, rhs: GridFunction, tols: Tolerances = Tolerances()
) -> GridFunction:
    """Conjugate gradient from a zero start to relative residual <= tol_linear.

    The answer is accepted when its componentwise (Oettli-Prager) backward
    error max_i |b - A x|_i / (|A| |x| + |b|)_i is at most 10 * tol_linear: x
    then solves a system whose every entry is that close to A and b.  The
    relative residual would not do: float64 CG stalls near eps * cond(A), which
    grows like h^-2 (about 1.3e-11 on a 256^2 grid), while this stays near eps.
    """
    b = rhs.interior()
    if not np.any(b):
        return GridFunction.zero(op.grid)
    n = op.grid.n_interior
    tol, cap = tols.tol_linear, tols.linear_cap(n)
    x, info = cg(op.matrix, b, x0=np.zeros(n), rtol=tol, atol=0.0, maxiter=cap)
    if info != 0:
        raise NoConvergence(
            f"conjugate gradient did not reach tol={tol} within {cap} iterations"
        )
    scale = abs(op.matrix) @ np.abs(x) + np.abs(b)
    resid = np.abs(op.matrix @ x - b)
    # a row with zero scale has zero residual, so dividing it by 1 is exact
    berr = float(np.max(resid / np.where(scale > 0.0, scale, 1.0)))
    if berr > 10 * tol:
        raise NoConvergence(
            f"conjugate gradient returned backward error {berr:.3e} above tol={tol}"
        )
    return GridFunction.from_interior(op.grid, x)


def sup_norm(u: GridFunction) -> float:
    return float(np.max(np.abs(u.values)))


def h1_seminorm(u: GridFunction) -> float:
    """Discrete gradient l2 norm: forward differences weighted by cell volume."""
    total = 0.0
    for k, axis in enumerate(u.grid.axes):
        d = np.diff(u.values, axis=-1 - k) / axis.h
        total += np.sum(d * d)
    return float(np.sqrt(total * u.grid.cell_volume))


def h1_norm(u: GridFunction) -> float:
    l2 = np.sqrt(np.sum(u.values**2) * u.grid.cell_volume)
    return float(np.hypot(l2, h1_seminorm(u)))


def measure_above(u: GridFunction, M: float) -> float:
    """Volume carried by nodes where the value reaches M."""
    return float(np.count_nonzero(u.values >= M) * u.grid.cell_volume)


def require_zero_boundary(u: GridFunction, what: str = "function") -> None:
    if np.any(u.boundary_values() != 0.0):
        raise BoundaryViolation(f"{what} must vanish on the boundary")


# ---------------------------------------------------------------------------
# GridFunction CSV: header x,value (1D) or x,y,value (2D), rows sweep y then x
# ---------------------------------------------------------------------------


def gridfunction_to_csv(u: GridFunction, comment: str | None = None) -> str:
    g = u.grid
    lines = [] if comment is None else [f"# {comment}"]
    lines.append("".join(f"{name}," for name, _ in zip(_AXIS_NAMES, g.axes)) + "value")
    xs = [f"{x:.16e}," for x in g.axes[0].nodes]
    # one line of nodes per y; a 1D grid is one line with an empty y label
    ys = [f"{y:.16e}," for axis in g.axes[1:] for y in axis.nodes] or [""]
    for y_s, row in zip(ys, u.values.reshape(len(ys), -1).tolist()):
        lines.extend(f"{x_s}{y_s}{val:.16e}" for x_s, val in zip(xs, row))
    return "\n".join(lines) + "\n"


def write_gridfunction_csv(u: GridFunction, path: str, comment: str | None = None) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(gridfunction_to_csv(u, comment))


def read_gridfunction_csv(path: str, grid: Grid) -> GridFunction:
    """Load nodal values written by gridfunction_to_csv onto ``grid``.

    Row count and column count must match; coordinates must be finite and
    are checked loosely (within half a cell) to catch files from a different
    grid.  Only the first line that is not a comment may be a header, and
    only when its first token is no number.
    """
    with open(path) as fh:
        lines = [line.strip() for line in fh]
    lines = [line for line in lines if line and not line.startswith("#")]
    if lines:
        try:
            float(lines[0].split(",")[0])
        except ValueError:  # a header; "nan" and "inf" are data
            del lines[0]
    try:
        data = np.asarray([[float(tok) for tok in line.split(",")] for line in lines])
    except ValueError as exc:  # a token that is no number, or ragged rows
        raise ConfigError(f"data.file: {path}: {exc}") from None
    want_cols = grid.dim + 1
    if data.ndim != 2 or data.shape[1] != want_cols:
        raise ConfigError(f"data.file: expected {want_cols} columns in {path}")
    if data.shape[0] != grid.n_nodes:
        raise ConfigError(
            f"data.file: {path} has {data.shape[0]} rows, grid needs {grid.n_nodes}"
        )
    if not np.all(np.isfinite(data[:, :-1])):
        raise ConfigError(f"data.file: node coordinates in {path} must be finite")
    coords = np.stack([c.ravel() for c in grid.node_coordinates()], axis=1)
    if np.max(np.abs(data[:, :-1] - coords)) > 0.5 * grid.h_max:
        raise ConfigError(f"data.file: node coordinates in {path} do not match grid")
    return GridFunction(grid=grid, values=data[:, -1].reshape(grid.node_shape))
