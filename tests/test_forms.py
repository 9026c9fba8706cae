"""Exterior algebra basics: wedge bookkeeping, inner products, Hodge duality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkforms.exterior import FormVector, basis_indices, hodge_star, inner, wedge
from hkforms.exterior.forms import form_gram, merge_sign


def random_form(rng, dim, degree):
    coeffs = {b: complex(rng.standard_normal(), rng.standard_normal())
              for b in basis_indices(dim, degree)}
    return FormVector(dim, coeffs)


def test_wedge_basis_case():
    e0 = FormVector(4, {(0,): 1.0})
    e1 = FormVector(4, {(1,): 1.0})
    assert wedge(e0, e1).coeffs == {(0, 1): 1.0 + 0j}


def test_wedge_antisymmetry_on_sum():
    a = FormVector(4, {(0,): 1.0, (1,): 1.0})
    e0 = FormVector(4, {(0,): 1.0})
    assert wedge(a, e0).coeffs == {(0, 1): -1.0 + 0j}


def test_wedge_graded_commutativity():
    rng = np.random.default_rng(3)
    for p, q in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 3)]:
        a = random_form(rng, 6, p)
        b = random_form(rng, 6, q)
        lhs = wedge(a, b)
        rhs = (-1.0) ** (p * q) * wedge(b, a)
        assert (lhs - rhs).norm() <= 1e-12


def test_wedge_associative_bilinear():
    rng = np.random.default_rng(4)
    a, b, c = (random_form(rng, 5, d) for d in (1, 1, 2))
    assert (wedge(wedge(a, b), c) - wedge(a, wedge(b, c))).norm() <= 1e-12
    s = 2.5 - 1.0j
    assert (wedge(s * a + b, c) - (s * wedge(a, c) + wedge(b, c))).norm() <= 1e-12


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(FormVector(4, {(0,): 1.0}), FormVector(8, {(0,): 1.0}))


def test_multi_index_validation():
    with pytest.raises(ValueError):
        FormVector(4, {(1, 0): 1.0})
    with pytest.raises(ValueError):
        FormVector(4, {(0, 4): 1.0})


def test_merge_sign_examples():
    assert merge_sign((0,), (1,)) == (1, (0, 1))
    assert merge_sign((1,), (0,)) == (-1, (0, 1))
    assert merge_sign((0, 1), (0,)) == (0, ())


def test_hodge_star_basis():
    assert hodge_star(FormVector(4, {(0, 1): 1.0})).coeffs == {(2, 3): 1.0 + 0j}
    assert hodge_star(FormVector(4, {(): 1.0})).coeffs == {(0, 1, 2, 3): 1.0 + 0j}


def test_hodge_star_involution_on_two_forms():
    rng = np.random.default_rng(5)
    a = random_form(rng, 4, 2)
    assert (hodge_star(hodge_star(a)) - a).norm() <= 1e-12


def test_hodge_star_sign_rule():
    # ** = (-1)^{p(n-p)} on an orthonormal metric
    rng = np.random.default_rng(6)
    for n, p in [(4, 1), (4, 3), (6, 2), (8, 3)]:
        a = random_form(rng, n, p)
        twice = hodge_star(hodge_star(a))
        assert (twice - (-1.0) ** (p * (n - p)) * a).norm() <= 1e-12


def test_hodge_star_mixed_degree_rejected():
    mixed = FormVector(4, {(0,): 1.0, (0, 1): 1.0})
    with pytest.raises(ValueError):
        hodge_star(mixed)


def test_inner_product_orthonormal():
    a = FormVector(4, {(0, 1): 2.0, (2, 3): 1.0j})
    assert inner(a, a) == pytest.approx(5.0)
    b = FormVector(4, {(0, 2): 1.0})
    assert inner(a, b) == 0


def test_inner_product_scaled_metric():
    # with g = c^2 Id the 1-form Gram is c^{-2} Id
    g = 4.0 * np.eye(4)
    a = FormVector(4, {(0,): 1.0})
    assert inner(a, a, metric=g) == pytest.approx(0.25)
    assert form_gram(g, 2)[0, 0] == pytest.approx(1.0 / 16.0)


def test_star_pairing_against_inner():
    # alpha ^ *beta = <alpha, beta> vol, checked on random 2-forms
    rng = np.random.default_rng(7)
    a = random_form(rng, 4, 2)
    b = random_form(rng, 4, 2)
    top = wedge(a, hodge_star(b))
    # linear star: pairing is the bilinear (not Hermitian) one
    expected = sum(a.coeffs.get(k, 0) * b.coeffs.get(k, 0)
                   for k in set(a.coeffs) | set(b.coeffs))
    assert top.coeffs.get((0, 1, 2, 3), 0) == pytest.approx(expected)


# -- properties on random sparse forms at dims 4 and 8 ------------------------

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
DIMS = st.sampled_from((4, 8))
COEFFS = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def draw_form(data, dim, degree):
    keys = data.draw(st.lists(st.sampled_from(basis_indices(dim, degree)),
                              min_size=1, max_size=5, unique=True))
    return FormVector(dim, {k: data.draw(COEFFS) for k in keys})


def draw_degrees(data, dim, count):
    """Degrees of `count` forms whose product is not zero for degree reasons."""
    degrees = []
    for _ in range(count):
        degrees.append(data.draw(st.integers(0, dim - sum(degrees))))
    return degrees


@PROPERTY
@given(DIMS, st.data())
def test_wedge_graded_commutativity_property(dim, data):
    p, q = draw_degrees(data, dim, 2)
    a, b = draw_form(data, dim, p), draw_form(data, dim, q)
    assert (wedge(a, b) - (-1.0) ** (p * q) * wedge(b, a)).norm() <= 1e-12


@PROPERTY
@given(DIMS, st.data())
def test_wedge_associativity_property(dim, data):
    a, b, c = (draw_form(data, dim, d) for d in draw_degrees(data, dim, 3))
    assert (wedge(wedge(a, b), c) - wedge(a, wedge(b, c))).norm() <= 1e-12


@PROPERTY
@given(DIMS, st.data())
def test_hodge_star_sign_property(dim, data):
    p = data.draw(st.integers(0, dim))
    a = draw_form(data, dim, p)
    assert (hodge_star(hodge_star(a)) - (-1.0) ** (p * (dim - p)) * a).norm() <= 1e-12


# -- the cached basis and Hodge tables against the loops they replaced --------

def to_vector_oracle(a, degree):
    basis = basis_indices(a.dim, degree)
    idx = {b: i for i, b in enumerate(basis)}
    v = np.zeros(len(basis), dtype=complex)
    for k, c in a.coeffs.items():
        if len(k) == degree:
            v[idx[k]] = c
    return v


def from_vector_oracle(dim, degree, v):
    basis = basis_indices(dim, degree)
    return FormVector(dim, {b: v[i] for i, b in enumerate(basis) if v[i] != 0})


def hodge_star_oracle(a, metric=None):
    p = a.degree()
    n = a.dim
    g = np.eye(n) if metric is None else np.asarray(metric, dtype=float)
    vol_scale = math.sqrt(np.linalg.det(g))
    gp = form_gram(g, p) if metric is not None else None
    va = to_vector_oracle(a, p)
    weighted = va if gp is None else gp @ va
    out: dict = {}
    for i, bi in enumerate(basis_indices(n, p)):
        if weighted[i] == 0:
            continue
        comp = tuple(sorted(set(range(n)) - set(bi)))
        s, _ = merge_sign(bi, comp)
        out[comp] = out.get(comp, 0.0) + s * vol_scale * weighted[i]
    return FormVector(n, out)


def draw_metric(data, dim):
    """None (the flat branch) or a random symmetric positive-definite metric."""
    if not data.draw(st.booleans()):
        return None
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    P = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
    return P.T @ P


def same(a, b):
    """Equal coefficients in the same key order."""
    return a.dim == b.dim and list(a.coeffs.items()) == list(b.coeffs.items())


@PROPERTY
@given(DIMS, st.data())
def test_vector_round_trip_matches_the_dense_loops(dim, data):
    p, q = draw_degrees(data, dim, 2)
    a = draw_form(data, dim, p) + draw_form(data, dim, q)
    for degree in range(dim + 1):
        v = a.to_vector(degree)
        assert np.array_equal(v, to_vector_oracle(a, degree))
        assert same(FormVector.from_vector(dim, degree, v), from_vector_oracle(dim, degree, v))
        dense = v + data.draw(COEFFS)      # no zeros left, as a matrix product gives
        assert same(FormVector.from_vector(dim, degree, dense),
                    from_vector_oracle(dim, degree, dense))


@PROPERTY
@given(DIMS, st.data())
def test_hodge_star_matches_the_complement_loop(dim, data):
    a = draw_form(data, dim, data.draw(st.integers(0, dim)))
    metric = draw_metric(data, dim)
    assert same(hodge_star(a, metric), hodge_star_oracle(a, metric))


def test_an_identity_metric_stars_as_form_gram_of_the_identity():
    # an exactly flat metric skips form_gram, which is then the identity
    rng = np.random.default_rng(26)
    for n, p in [(4, 0), (4, 1), (4, 2), (4, 3), (8, 2), (8, 3)]:
        a = random_form(rng, n, p)
        assert same(hodge_star(a, np.eye(n)), hodge_star_oracle(a, np.eye(n)))
        assert same(hodge_star(a, np.eye(n)), hodge_star(a))


def test_from_vector_refuses_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError):
        FormVector.from_vector(4, 2, np.ones(5))
