"""Complexified exterior algebra over R^n in the canonical multi-index basis.

A form is stored as a sparse map from strictly increasing index tuples
(0-based, subsets of range(n)) to complex coefficients.  Wedge products do
the usual sign bookkeeping against the canonical ordering; inner products
and Hodge duals default to the orthonormal flat metric but accept a general
symmetric positive-definite metric on the underlying vector space.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

MultiIndex = tuple  # strictly increasing tuple of ints


def basis_indices(dim: int, degree: int) -> list[MultiIndex]:
    """Canonical (lexicographic) basis multi-indices of Lambda^degree(R^dim)."""
    return list(itertools.combinations(range(dim), degree))


def merge_sign(a: MultiIndex, b: MultiIndex) -> tuple[int, MultiIndex]:
    """Sign and sorted result of concatenating two increasing multi-indices.

    Returns (0, ()) when the tuples overlap (the wedge vanishes).
    """
    if set(a) & set(b):
        return 0, ()
    seq = a + b
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return (-1) ** inv, tuple(sorted(seq))


@dataclass(frozen=True)
class FormVector:
    """Element of the complexified exterior algebra of R^dim."""

    dim: int
    coeffs: Mapping[MultiIndex, complex] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for key, c in self.coeffs.items():
            key = tuple(key)
            if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                raise ValueError(f"multi-index {key} is not strictly increasing")
            if key and (key[0] < 0 or key[-1] >= self.dim):
                raise ValueError(f"multi-index {key} out of range for dim {self.dim}")
            if c != 0:
                clean[key] = complex(c)
        object.__setattr__(self, "coeffs", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "FormVector":
        return FormVector(dim, {})

    # -- structure ---------------------------------------------------------

    def degrees(self) -> set[int]:
        return {len(k) for k in self.coeffs}

    def degree(self) -> int:
        """Degree of a pure-degree form (raises on mixed degree)."""
        degs = self.degrees()
        if len(degs) > 1:
            raise ValueError(f"mixed-degree form: degrees {sorted(degs)}")
        return degs.pop() if degs else 0

    def to_vector(self, degree: int) -> np.ndarray:
        """Dense coefficient vector in the canonical basis of Lambda^degree."""
        basis = basis_indices(self.dim, degree)
        idx = {b: i for i, b in enumerate(basis)}
        v = np.zeros(len(basis), dtype=complex)
        for k, c in self.coeffs.items():
            if len(k) == degree:
                v[idx[k]] = c
        return v

    @staticmethod
    def from_vector(dim: int, degree: int, v: np.ndarray) -> "FormVector":
        basis = basis_indices(dim, degree)
        return FormVector(dim, {b: v[i] for i, b in enumerate(basis) if v[i] != 0})

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "FormVector") -> "FormVector":
        self._check_dim(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return FormVector(self.dim, out)

    def __sub__(self, other: "FormVector") -> "FormVector":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "FormVector":
        return FormVector(self.dim, {k: scalar * c for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "FormVector":
        return (-1.0) * self

    def norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def _check_dim(self, other: "FormVector"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


def wedge(a: FormVector, b: FormVector) -> FormVector:
    """Exterior product a ^ b."""
    a._check_dim(b)
    out: dict = {}
    for ka, ca in a.coeffs.items():
        for kb, cb in b.coeffs.items():
            s, merged = merge_sign(ka, kb)
            if s != 0:
                out[merged] = out.get(merged, 0.0) + s * ca * cb
    return FormVector(a.dim, out)


def _compound_gram(gram1: np.ndarray, degree: int) -> np.ndarray:
    """Gram matrix on Lambda^degree induced by a 1-form Gram matrix."""
    basis = basis_indices(gram1.shape[0], degree)
    G = np.empty((len(basis), len(basis)))
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            G[i, j] = np.linalg.det(gram1[np.ix_(bi, bj)]) if degree else 1.0
    return G


def form_gram(metric: np.ndarray, degree: int) -> np.ndarray:
    """Induced inner-product matrix on degree-p forms for a metric on vectors."""
    return _compound_gram(np.linalg.inv(metric), degree)


def inner(a: FormVector, b: FormVector, metric: np.ndarray | None = None) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    a._check_dim(b)
    total = 0.0 + 0.0j
    for p in a.degrees() | b.degrees():
        va = a.to_vector(p)
        vb = b.to_vector(p)
        if metric is None:
            total += np.vdot(va, vb)
        else:
            total += va.conj() @ form_gram(metric, p) @ vb
    return complex(total)


def hodge_star(a: FormVector, metric: np.ndarray | None = None,
               orientation: int = 1) -> FormVector:
    """Hodge dual of a pure-degree form: alpha ^ *beta = <alpha, beta> vol."""
    p = a.degree()
    n = a.dim
    g = np.eye(n) if metric is None else np.asarray(metric, dtype=float)
    vol_scale = orientation * math.sqrt(np.linalg.det(g))
    gp = form_gram(g, p) if metric is not None else None
    va = a.to_vector(p)
    weighted = va if gp is None else gp @ va
    src = basis_indices(n, p)
    out: dict = {}
    for i, bi in enumerate(src):
        if weighted[i] == 0:
            continue
        comp = tuple(sorted(set(range(n)) - set(bi)))
        s, _ = merge_sign(bi, comp)
        out[comp] = out.get(comp, 0.0) + s * vol_scale * weighted[i]
    return FormVector(n, out)
