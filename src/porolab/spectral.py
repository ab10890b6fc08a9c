"""First weighted eigenvalue of -div(A grad phi) = lambda f phi.

Inverse power iteration on the pencil (A_h, diag(f)): each step solves one
linear system with conjugate gradients, to a relative residual of
min(tol_linear, tol_eig / 100), and renormalizes in the f-weighted l2 inner
product.  Only the smallest eigenvalue is needed, so no shifts.
A zero of f at some nodes leaves the iteration well-posed because A_h is
positive definite; f identically zero is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import cg

from .errors import InvalidWeight, NoConvergence
from .elliptic import GridFunction, SparseOperator
from .params import Tolerances


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Principal eigenvalue, its positive f-normalized eigenfunction, and the
    number of inverse-iteration steps that produced them."""

    lambda1: float
    phi1: GridFunction
    iterations: int


def _weight_vector(op: SparseOperator, f: GridFunction) -> np.ndarray:
    if f.grid != op.grid:
        raise InvalidWeight("weight grid does not match operator grid")
    w = f.interior()
    if np.any(w < 0):
        raise InvalidWeight("weight f must be nonnegative")
    if not np.any(w > 0):
        raise InvalidWeight("weight f must not vanish identically")
    return w


def principal_eigenpair(
    op: SparseOperator, f: GridFunction, tols: Tolerances = Tolerances()
) -> EigenPair:
    """Smallest eigenvalue of A_h phi = lambda diag(f) phi with phi > 0.

    Starts from the all-ones interior vector (never orthogonal to the
    principal eigenfunction, which has one sign); stops when successive
    eigenvalue estimates agree to tol_eig relatively, within max_eig_iter
    steps.
    """
    w = _weight_vector(op, f)
    vol = op.grid.cell_volume
    n = op.grid.n_interior
    tol, cap = tols.tol_eig, tols.linear_cap(n)
    itol = min(tols.tol_linear, tol * 1e-2)

    phi = np.ones(n)
    phi /= np.sqrt(float(np.sum(w * phi * phi)) * vol)
    lam = float(phi @ (op.matrix @ phi)) / float(np.sum(w * phi * phi))

    for k in range(1, tols.max_eig_iter + 1):
        rhs = w * phi
        z, info = cg(op.matrix, rhs, x0=phi / lam, rtol=itol, atol=0.0, maxiter=cap)
        if info != 0:
            raise NoConvergence(
                f"inner conjugate gradient failed at eigen iteration {k}"
            )
        if z[np.argmax(np.abs(z))] < 0:
            z = -z
        mass = float(np.sum(w * z * z))
        if mass <= 0.0:
            raise NoConvergence("eigen iterate lost its f-weighted mass")
        lam_new = float(z @ (op.matrix @ z)) / mass
        phi = z / np.sqrt(mass * vol)
        if abs(lam_new - lam) <= tol * abs(lam_new):
            lam = lam_new
            break
        lam = lam_new
    else:
        raise NoConvergence(
            f"eigen iteration did not converge in {tols.max_eig_iter} steps (tol={tol})"
        )

    return EigenPair(
        lambda1=lam, phi1=GridFunction.from_interior(op.grid, phi), iterations=k
    )
