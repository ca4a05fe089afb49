"""1-D grids on (-1, 1) and the discrete second-difference operator.

Dirichlet rows are eliminated: grids carry interior nodes only, and the
assembled operator is the symmetric tridiagonal matrix of

    -phi'' + Q(y) phi

under second-order central differences.  Grids are uniform, so the lumped
mass matrix is h times the identity and the matrix eigenproblem is already
in standard symmetric form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["Grid1D", "TridiagOperator", "build_grid", "assemble"]


@dataclass(frozen=True)
class Grid1D:
    """Interior nodes -1 + (i+1) h of a uniform partition of [-1, 1].

    h = 2 / (n_interior + 1).  The nodes are exactly antisymmetric, so the
    mirror images (beta, c) and (-beta, -c) of a Couette problem give
    exactly reversed matrices.  ``assemble`` uses the uniform stencil, so a
    grid is rejected unless it has n_interior nodes, that h, and every gap
    (ends included) within 2 eps of h, which also keeps the nodes increasing
    inside (-1, 1); ``build_grid``'s gaps are within 0.5 eps.
    """

    n_interior: int
    nodes: np.ndarray
    h: float

    def __post_init__(self):
        if self.n_interior < 3:
            raise ValidationError(f"invalid-count: n_interior must be >= 3, got {self.n_interior}")
        d = np.diff(np.concatenate(([-1.0], self.nodes, [1.0])))
        if (self.nodes.size != self.n_interior or self.h != 2.0 / (self.n_interior + 1)
                or not np.all(np.abs(d - self.h) <= 2 * np.finfo(float).eps)):
            raise ValidationError("non-uniform: assemble needs n_interior nodes h = 2/(n_interior + 1) apart")


@dataclass(frozen=True)
class TridiagOperator:
    """Symmetric tridiagonal matrix: main diagonal plus one shared off-diagonal."""

    diag: np.ndarray
    off: np.ndarray
    grid: Grid1D

    @property
    def dim(self) -> int:
        return self.diag.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[1:] += self.off * v[:-1]
        out[:-1] += self.off * v[1:]
        return out


def build_grid(n_interior: int) -> Grid1D:
    """The uniform grid with ``n_interior`` nodes inside (-1, 1)."""
    if n_interior < 3:
        raise ValidationError(f"invalid-count: n_interior must be >= 3, got {n_interior}")
    h = 2.0 / (n_interior + 1)
    nodes = (2.0 * np.arange(1, n_interior + 1) - (n_interior + 1)) / (n_interior + 1)
    return Grid1D(n_interior=n_interior, nodes=nodes, h=h)


def assemble(grid: Grid1D, Q) -> TridiagOperator:
    """Discretize -d2/dy2 + Q(y) with Dirichlet conditions on the grid.

    The classic stencil: diag_i = 2/h^2 + Q(y_i), off_i = -1/h^2.
    """
    q = np.asarray(Q(grid.nodes), dtype=float)
    if q.shape != grid.nodes.shape:
        q = np.broadcast_to(q, grid.nodes.shape).astype(float)
    if not np.all(np.isfinite(q)):
        bad = grid.nodes[~np.isfinite(q)][0]
        raise ValidationError(f"non-finite-potential: Q({bad}) is not finite")
    h = grid.h
    diag = 2.0 / h**2 + q
    off = np.full(grid.n_interior - 1, -1.0 / h**2)
    return TridiagOperator(diag=diag, off=off, grid=grid)
