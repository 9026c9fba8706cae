"""Quaternionic structures on R^{4k} and their Kahler 2-forms.

The default structure realizes I, J, K as left multiplication by the unit
quaternions i, j, k on H^k = R^{4k} in the basis (1, i, j, k) per factor.
With the flat metric this makes the three Kahler forms

    omega_1 = e01 + e23 (+ e45 + e67 ...),
    omega_2 = e02 - e13 (+ ...),
    omega_3 = e03 + e12 (+ ...),

all self-dual for the standard orientation, and fixes every sign downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Metric, orientation and a quaternionic triple I, J, K on R^{4k}."""

    dim: int
    metric: np.ndarray = None
    orientation: int = 1
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
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        self._validate()

    @property
    def k(self) -> int:
        return self.dim // 4

    def complex_structure(self, axis: int) -> np.ndarray:
        """The matrix I, J or K for axis 1, 2 or 3."""
        try:
            return (self.I, self.J, self.K)[axis - 1]
        except IndexError:
            raise ValueError("axis must be 1, 2 or 3") from None

    def omega(self, axis: int) -> FormVector:
        """Kahler 2-form omega_i(X, Y) = g(I_i X, Y)."""
        C = self.omega_matrix(axis)
        coeffs = {}
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                if abs(C[a, b]) > 1e-15:
                    coeffs[(a, b)] = C[a, b]
        return FormVector(self.dim, coeffs)

    def omega_matrix(self, axis: int) -> np.ndarray:
        """Antisymmetric coefficient matrix of omega_i."""
        return self.complex_structure(axis).T @ self.metric

    def holomorphic_symplectic(self) -> FormVector:
        """omega^c = omega_2 + i omega_3, the holomorphic symplectic form for I."""
        return self.omega(2) + 1j * self.omega(3)

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
