"""Quaternionic structures on R^{4k} and their Kahler 2-forms.

The default structure realizes I, J, K as left multiplication by the unit
quaternions i, j, k on H^k = R^{4k} in the basis (1, i, j, k) per factor.
With the flat metric this makes the three Kahler forms

    omega_1 = e01 + e23 (+ e45 + e67 ...),
    omega_2 = e02 - e13 (+ ...),
    omega_3 = e03 + e12 (+ ...),

all self-dual for the standard orientation, and fixes every sign downstream.

A structure keeps read-only copies of its matrices and of its omega
matrices, and owns one LefschetzAlgebra (`algebra`), built on first use and
shared by every exterior check on that structure.  An axis is 1, 2 or 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..numerics import cyclic_axes
from .forms import FormVector

_I4 = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
_J4 = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
_K4 = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float)


def _block_repeat(M: np.ndarray, copies: int) -> np.ndarray:
    out = np.zeros((4 * copies, 4 * copies))
    for c in range(copies):
        out[4 * c:4 * c + 4, 4 * c:4 * c + 4] = M
    return out


@dataclass(frozen=True)
class QuaternionicStructure:
    """Metric and a quaternionic triple I, J, K on R^{4k}."""

    dim: int
    metric: np.ndarray = None
    I: np.ndarray = None
    J: np.ndarray = None
    K: np.ndarray = None

    def __post_init__(self):
        if self.dim % 4 != 0 or self.dim <= 0:
            raise ValueError("dim must be a positive multiple of 4")
        k = self.dim // 4
        if self.metric is None:
            object.__setattr__(self, "metric", np.eye(self.dim))
        if self.I is None:
            object.__setattr__(self, "I", _block_repeat(_I4, k))
            object.__setattr__(self, "J", _block_repeat(_J4, k))
            object.__setattr__(self, "K", _block_repeat(_K4, k))
        for name in ("metric", "I", "J", "K"):
            # a private read-only copy, so that `algebra` cannot go stale
            M = np.array(getattr(self, name), dtype=float)
            M.flags.writeable = False
            object.__setattr__(self, name, M)
        self._validate()

    @property
    def k(self) -> int:
        return self.dim // 4

    @cached_property
    def algebra(self):
        """The LefschetzAlgebra of this structure, built once on first use."""
        from .operators import LefschetzAlgebra
        return LefschetzAlgebra(self)

    def complex_structure(self, axis: int) -> np.ndarray:
        """The matrix I, J or K for axis 1, 2 or 3."""
        cyclic_axes(axis)   # refuses any other axis
        return (self.I, self.J, self.K)[axis - 1]

    def omega(self, axis: int) -> FormVector:
        """Kahler 2-form omega_i(X, Y) = g(I_i X, Y)."""
        C = self.omega_matrix(axis)
        coeffs = {}
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                if abs(C[a, b]) > 1e-15:
                    coeffs[(a, b)] = C[a, b]
        return FormVector(self.dim, coeffs)

    @cached_property
    def _omega_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        omegas = tuple(M.T @ self.metric for M in (self.I, self.J, self.K))
        for W in omegas:
            W.flags.writeable = False
        return omegas

    def omega_matrix(self, axis: int) -> np.ndarray:
        """Antisymmetric coefficient matrix of omega_i, built once and read-only."""
        cyclic_axes(axis)   # refuses any other axis
        return self._omega_matrices[axis - 1]

    def _validate(self):
        tol = 1e-12
        g = self.metric
        eye = np.eye(self.dim)
        if np.abs(g - g.T).max() > tol or np.linalg.eigvalsh(g).min() <= 0:
            raise ValueError("metric must be symmetric positive-definite")
        I, J, K = self.I, self.J, self.K
        for name, M in (("I", I), ("J", J), ("K", K)):
            if np.abs(M @ M + eye).max() > tol:
                raise ValueError(f"{name}^2 != -Id")
            if np.abs(M.T @ g @ M - g).max() > tol:
                raise ValueError(f"{name} is not metric-orthogonal")
        if np.abs(I @ J @ K + eye).max() > tol:
            raise ValueError("IJK != -Id")
        for axis in (1, 2, 3):
            W = self.omega_matrix(axis)
            if np.abs(W + W.T).max() > tol:
                raise ValueError(f"omega_{axis} is not antisymmetric")
            if abs(np.linalg.det(W)) < tol:
                raise ValueError(f"omega_{axis} is degenerate")
