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
from functools import lru_cache
from typing import Mapping

import numpy as np

MultiIndex = tuple  # strictly increasing tuple of ints


@lru_cache(maxsize=None)
def _basis(dim: int, degree: int) -> tuple[MultiIndex, ...]:
    return tuple(itertools.combinations(range(dim), degree))


@lru_cache(maxsize=None)
def _basis_position(dim: int, degree: int) -> dict[MultiIndex, int]:
    return {b: i for i, b in enumerate(_basis(dim, degree))}


def basis_indices(dim: int, degree: int) -> list[MultiIndex]:
    """Canonical (lexicographic) basis multi-indices of Lambda^degree(R^dim)."""
    return list(_basis(dim, degree))


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

    @classmethod
    def _trusted(cls, dim: int, items) -> "FormVector":
        """A form from (key, coefficient) pairs whose keys are already valid.

        Zero coefficients are dropped and the rest made complex, as in the
        public constructor, but the keys are not checked again: the library
        calls this only with keys taken from a basis table or another form.
        """
        form = object.__new__(cls)
        object.__setattr__(form, "dim", dim)
        object.__setattr__(form, "coeffs", {k: complex(c) for k, c in items if c != 0})
        return form

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
        idx = _basis_position(self.dim, degree)
        v = np.zeros(len(idx), dtype=complex)
        for k, c in self.coeffs.items():
            if len(k) == degree:
                v[idx[k]] = c
        return v

    @staticmethod
    def from_vector(dim: int, degree: int, v: np.ndarray) -> "FormVector":
        return FormVector._trusted(dim, zip(_basis(dim, degree), v.tolist(), strict=True))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "FormVector") -> "FormVector":
        self._check_dim(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return FormVector._trusted(self.dim, out.items())

    def __sub__(self, other: "FormVector") -> "FormVector":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "FormVector":
        return FormVector._trusted(self.dim, ((k, scalar * c) for k, c in self.coeffs.items()))

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
    return FormVector._trusted(a.dim, out.items())


def form_gram(metric: np.ndarray, degree: int) -> np.ndarray:
    """Induced inner-product matrix on degree-p forms: the minors det(g^-1[I, J])."""
    gram1 = np.linalg.inv(metric)
    basis = _basis(gram1.shape[0], degree)
    G = np.empty((len(basis), len(basis)))
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            G[i, j] = np.linalg.det(gram1[np.ix_(bi, bj)]) if degree else 1.0
    return G


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


@lru_cache(maxsize=None)
def _hodge_table(dim: int, degree: int) -> tuple[tuple[MultiIndex, int], ...]:
    """(complement, sign of basis ^ complement) for each basis index, in basis order."""
    table = []
    for b in _basis(dim, degree):
        comp = tuple(sorted(set(range(dim)) - set(b)))
        table.append((comp, merge_sign(b, comp)[0]))
    return tuple(table)


def hodge_star(a: FormVector, metric: np.ndarray | None = None) -> FormVector:
    """Hodge dual of a pure-degree form: alpha ^ *beta = <alpha, beta> vol.

    An exactly flat metric skips `form_gram`, which is then the identity.
    """
    p = a.degree()
    n = a.dim
    g = np.eye(n) if metric is None else np.asarray(metric, dtype=float)
    vol_scale = math.sqrt(np.linalg.det(g))
    flat = metric is None or np.array_equal(g, np.eye(n))
    va = a.to_vector(p)
    weighted = va if flat else form_gram(g, p) @ va
    out: dict = {}
    for (comp, s), w in zip(_hodge_table(n, p), weighted):
        if w != 0:
            out[comp] = out.get(comp, 0.0) + s * vol_scale * w
    return FormVector._trusted(n, out.items())
