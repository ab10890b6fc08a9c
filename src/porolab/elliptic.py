"""Uniform-grid discretization of -div(A(x) grad v) on an interval or rectangle.

Homogeneous Dirichlet conditions, diagonal coefficient tensor diag(a_x(x),
a_y(y)) given as one nodal profile per axis, 3-point (1D) or 5-point (2D)
flux-form stencil with arithmetic-mean face coefficients.  Both dimensions
share one assembly path, so the 2D matrix is the Kronecker sum
I (x) T_x + T_y (x) I of the two 1D matrices, up to the rounding of its
diagonal sums.  The assembled matrix over interior nodes is a symmetric
M-matrix, so the discrete maximum principle holds: nonnegative data give
nonnegative solutions.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Grid:
    """Uniform node grid on (x0, x1) or (x0, x1) x (y0, y1).

    ``nx``/``ny`` count cells per axis; nodes per axis are one more.  Nodal
    arrays are indexed [i] in 1D and [j, i] in 2D (rows sweep y), so flattened
    node order is row-major by y then x.
    """

    dim: int
    x0: float
    x1: float
    nx: int
    y0: float | None = None
    y1: float | None = None
    ny: int | None = None

    @property
    def hx(self) -> float:
        return (self.x1 - self.x0) / self.nx

    @property
    def hy(self) -> float:
        return (self.y1 - self.y0) / self.ny

    @property
    def h_max(self) -> float:
        return self.hx if self.dim == 1 else max(self.hx, self.hy)

    @property
    def cell_volume(self) -> float:
        return self.hx if self.dim == 1 else self.hx * self.hy

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.nx + 1)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y0, self.y1, self.ny + 1)

    @property
    def node_shape(self) -> tuple[int, ...]:
        if self.dim == 1:
            return (self.nx + 1,)
        return (self.ny + 1, self.nx + 1)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.node_shape))

    @property
    def interior_shape(self) -> tuple[int, ...]:
        if self.dim == 1:
            return (self.nx - 1,)
        return (self.ny - 1, self.nx - 1)

    @property
    def n_interior(self) -> int:
        return int(np.prod(self.interior_shape))

    def interior_slice(self):
        if self.dim == 1:
            return slice(1, self.nx)
        return (slice(1, self.ny), slice(1, self.nx))

    def boundary_mask(self) -> np.ndarray:
        mask = np.ones(self.node_shape, dtype=bool)
        mask[self.interior_slice()] = False
        return mask

    def node_coordinates(self) -> tuple[np.ndarray, ...]:
        """Nodal coordinate arrays with the same shape as nodal value arrays."""
        if self.dim == 1:
            return (self.xs,)
        x, y = np.meshgrid(self.xs, self.ys)
        return (x, y)


def build_grid(
    dim: int,
    x_extent: tuple[float, float] = (0.0, 1.0),
    n_cells: int = 128,
    y_extent: tuple[float, float] | None = None,
    n_cells_y: int | None = None,
) -> Grid:
    """Uniform grid; node coordinates are a pure function of the arguments."""
    if dim not in (1, 2):
        raise ConfigError("domain.dim must be 1 or 2")
    x0, x1 = float(x_extent[0]), float(x_extent[1])
    if not x1 > x0:
        raise ConfigError("domain x extent is degenerate (need x1 > x0)")
    if n_cells < 4:
        raise ConfigError("domain.n_cells must be at least 4 per axis")
    if dim == 1:
        return Grid(dim=1, x0=x0, x1=x1, nx=int(n_cells))
    y_extent = y_extent if y_extent is not None else x_extent
    ny = int(n_cells_y) if n_cells_y is not None else int(n_cells)
    y0, y1 = float(y_extent[0]), float(y_extent[1])
    if not y1 > y0:
        raise ConfigError("domain y extent is degenerate (need y1 > y0)")
    if ny < 4:
        raise ConfigError("domain.n_cells must be at least 4 per axis")
    return Grid(dim=2, x0=x0, x1=x1, nx=int(n_cells), y0=y0, y1=y1, ny=ny)


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Diagonal coefficient tensor as one nodal profile per axis.

    ``ax`` (nx+1 values) multiplies the x-derivative flux, ``ay`` (ny+1
    values, 2D only) the y-derivative flux.  Both are stored read-only.
    [alpha, beta] is the declared ellipticity window; every value must be
    finite and lie inside it.
    """

    grid: Grid
    ax: np.ndarray
    ay: np.ndarray | None = None
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        g = self.grid
        if (self.ay is None) != (g.dim == 1):
            raise EllipticityError("need one coefficient profile per axis")
        profiles = []
        for name, n in (("ax", g.nx), ("ay", g.ny))[: g.dim]:
            a = np.array(getattr(self, name), dtype=float)
            if a.shape != (n + 1,):
                raise EllipticityError(f"coefficient profile {name} needs {n + 1} values")
            if not np.all(np.isfinite(a)):
                raise EllipticityError(f"coefficient profile {name} is not finite")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
            profiles.append(a)
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
    """ax = base + slope_x * x, ay = base + slope_y * y."""
    ay = base + slope_y * grid.ys if grid.dim == 2 else None
    return CoefficientField(grid, base + slope_x * grid.xs, ay, alpha, beta)


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
    # couplings of each interior node (rows y, columns x) to its neighbours
    shape = grid.interior_shape
    west, east = (np.broadcast_to(c, shape).copy() for c in _couplings(field.ax, grid.hx))
    diag = west + east
    if grid.dim == 2:
        south, north = _couplings(field.ay, grid.hy)
        diag = diag + south[:, None] + north[:, None]
    # a row's first west and last east neighbour sit on the rim, not in the
    # flat order; sp.diags drops these zeros
    west[..., 0] = 0.0
    east[..., -1] = 0.0
    bands = [-west.ravel()[1:], diag.ravel(), -east.ravel()[:-1]]
    offsets = [-1, 0, 1]
    if grid.dim == 2:
        m = grid.nx - 1
        bands = [-np.repeat(south, m)[m:], *bands, -np.repeat(north, m)[:-m]]
        offsets = [-m, *offsets, m]
    mat = sp.diags(bands, offsets=offsets, format="csr")
    return SparseOperator(grid=grid, matrix=mat)


def solve_linear(
    op: SparseOperator,
    rhs: GridFunction,
    tol: float,
    max_iter: int | None = None,
) -> GridFunction:
    """Conjugate gradient from a zero start to relative residual <= tol.

    The answer is accepted when its componentwise (Oettli-Prager) backward
    error max_i |b - A x|_i / (|A| |x| + |b|)_i is at most 10 * tol: x then
    solves a system whose every entry is that close to A and b.  The relative
    residual would not do: float64 CG stalls near eps * cond(A), which grows
    like h^-2 (about 1.3e-11 on a 256^2 grid), while this stays near eps.
    """
    if tol <= 0:
        raise ConfigError("solver.tol_linear must be positive")
    b = rhs.interior()
    if not np.any(b):
        return GridFunction.zero(op.grid)
    n = op.grid.n_interior
    cap = max_iter if max_iter is not None else 10 * n
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
    g = u.grid
    v = u.values
    if g.dim == 1:
        d = np.diff(v) / g.hx
        return float(np.sqrt(np.sum(d * d) * g.hx))
    dx = np.diff(v, axis=1) / g.hx
    dy = np.diff(v, axis=0) / g.hy
    return float(np.sqrt((np.sum(dx * dx) + np.sum(dy * dy)) * g.cell_volume))


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
    lines = []
    if comment is not None:
        lines.append(f"# {comment}")
    if g.dim == 1:
        lines.append("x,value")
        for x, val in zip(g.xs, u.values):
            lines.append(f"{x:.16e},{val:.16e}")
    else:
        lines.append("x,y,value")
        xs = [f"{x:.16e}" for x in g.xs]
        for y, row in zip(g.ys, u.values.tolist()):
            y_s = f"{y:.16e}"
            lines.extend(f"{x_s},{y_s},{val:.16e}" for x_s, val in zip(xs, row))
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
