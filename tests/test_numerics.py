"""Shared numerics: stencils, quadrature, nullspaces, pointwise duality."""

import math

import numpy as np
import pytest

from hkforms.numerics import (
    adaptive_simpson,
    composite_simpson,
    exterior_derivative_at,
    fd_weights,
    grid_derivative,
    hodge_star_2form,
    integrate_endpoint_singular,
    integrate_to_infinity,
    loglog_slope,
    nullspace,
    orthonormal_projector,
    partial_derivative,
    smoothstep_c2,
    smoothstep_c3,
    subspace_distance,
)


def test_fd_weights_centered_order2():
    w = fd_weights(0.0, [-1.0, 0.0, 1.0], 1)
    assert np.allclose(w, [-0.5, 0.0, 0.5])


def test_fd_weights_second_derivative():
    w = fd_weights(0.0, [-1.0, 0.0, 1.0], 2)
    assert np.allclose(w, [1.0, -2.0, 1.0])


def test_grid_derivative_polynomial_exact():
    # order-6 stencils are exact on degree-6 polynomials
    x = np.linspace(0.0, 2.0, 41)
    vals = x ** 6 - 3.0 * x ** 4 + x
    expected = 6.0 * x ** 5 - 12.0 * x ** 3 + 1.0
    out = grid_derivative(vals, x[1] - x[0], order=6)
    assert np.abs(out - expected).max() <= 1e-10


def test_grid_derivative_matrix_valued():
    x = np.linspace(0.0, 1.0, 21)
    vals = np.einsum("n,ab->nab", np.sin(x), np.eye(2))
    out = grid_derivative(vals, x[1] - x[0])
    assert np.abs(out[:, 0, 0] - np.cos(x)).max() <= 1e-8
    assert np.abs(out[:, 0, 1]).max() == 0.0


def test_grid_derivative_rejects_coarse_grids():
    with pytest.raises(ValueError):
        grid_derivative(np.zeros(5), 0.1, order=6)


def test_partial_derivative_richardson():
    f = lambda p: math.sin(p[0]) * p[1] ** 2
    x = np.array([0.7, 1.3])
    assert partial_derivative(f, x, 0) == pytest.approx(math.cos(0.7) * 1.3 ** 2, abs=1e-10)
    assert partial_derivative(f, x, 1) == pytest.approx(math.sin(0.7) * 2.6, abs=1e-10)


def test_exterior_derivative_of_exact_form_vanishes():
    # d(df) = 0 for f = x0 x1 + x2^3
    def df(p):
        return {(0,): p[1], (1,): p[0], (2,): 3.0 * p[2] ** 2, (3,): 0.0}

    out = exterior_derivative_at(df, np.array([0.3, -0.7, 0.4, 0.1]), 4)
    assert max(abs(v) for v in out.values()) <= 1e-9


def test_exterior_derivative_known_two_form():
    # d(x1 dx0) = -dx0^dx1: coefficient -1 on (0, 1)
    def comp(p):
        return {(0,): p[1], (1,): 0.0, (2,): 0.0, (3,): 0.0}

    out = exterior_derivative_at(comp, np.array([0.2, 0.5, 0.0, 0.0]), 4)
    assert out[(0, 1)] == pytest.approx(-1.0, abs=1e-10)


def test_adaptive_simpson_smooth():
    assert adaptive_simpson(math.sin, 0.0, math.pi, 1e-12) == pytest.approx(2.0, abs=1e-11)


def test_adaptive_simpson_relative_mode():
    # huge integrand with relative tolerance terminates quickly and accurately
    val = adaptive_simpson(lambda x: 1e12 * math.exp(x), 0.0, 1.0, 1e-10, rel=1e-10)
    assert val == pytest.approx(1e12 * (math.e - 1.0), rel=1e-9)


def test_integrate_endpoint_singular_power_law():
    # integral of x^{-1/2} over (0, 1) = 2
    val = integrate_endpoint_singular(lambda x: x ** -0.5, 0.0, 1.0, singular_at=0.0)
    assert val == pytest.approx(2.0, rel=1e-8)


def test_integrate_to_infinity():
    val = integrate_to_infinity(lambda x: math.exp(-x), 0.0)
    assert val == pytest.approx(1.0, rel=1e-9)
    val = integrate_to_infinity(lambda x: 1.0 / (1.0 + x) ** 2, 0.0)
    assert val == pytest.approx(1.0, rel=1e-9)


def test_composite_simpson_exact_on_cubics():
    x = np.linspace(0.0, 1.0, 11)
    vals = x ** 3
    assert composite_simpson(vals, x[1] - x[0]) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        composite_simpson(np.zeros(10), 0.1)


def test_loglog_slope():
    xs = np.geomspace(1.0, 100.0, 10)
    assert loglog_slope(xs, 5.0 * xs ** -2) == pytest.approx(-2.0, abs=1e-12)


def test_nullspace_known_kernel():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((4, 7))
    N = nullspace(B)
    assert N.shape == (7, 3)
    assert np.abs(B @ N).max() <= 1e-12
    assert np.abs(N.T @ N - np.eye(3)).max() <= 1e-12


def test_orthonormal_projector():
    rows = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
    P = orthonormal_projector(rows)
    assert np.abs(P @ P - P).max() <= 1e-12
    assert np.abs(P @ rows.T).max() <= 1e-12


def test_subspace_distance():
    U = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    V = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    assert subspace_distance(U, V) <= 1e-14
    W = np.array([[1.0], [0.0], [0.0]])
    assert subspace_distance(U[:, :1], W) <= 1e-14
    assert subspace_distance(U, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])) \
        == pytest.approx(1.0)


def test_hodge_star_flat_two_form():
    g = np.eye(4)
    B = np.zeros((4, 4))
    B[0, 1], B[1, 0] = 1.0, -1.0
    star = hodge_star_2form(B, g)
    expected = np.zeros((4, 4))
    expected[2, 3], expected[3, 2] = 1.0, -1.0
    assert np.abs(star - expected).max() <= 1e-14
    # involution on 2-forms in four dimensions
    assert np.abs(hodge_star_2form(star, g) - B).max() <= 1e-14


def test_hodge_star_2form_matches_form_star():
    # the Levi-Civita table against the merge-sign star of exterior.forms
    from hkforms.exterior import FormVector, hodge_star
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 4))
    B = M - M.T
    A = rng.standard_normal((4, 4))
    g = A @ A.T + 4.0 * np.eye(4)
    star = hodge_star_2form(B, g)
    form = hodge_star(FormVector(4, {(a, b): B[a, b] for a in range(4) for b in range(a + 1, 4)}),
                      metric=g)
    for (a, b), c in form.coeffs.items():
        assert abs(star[a, b] - c.real) <= 1e-13 * np.abs(star).max()
    assert len(form.coeffs) == 6


def test_hodge_star_orientation_flip():
    g = np.diag([2.0, 1.0, 1.0, 0.5])
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 4))
    B = M - M.T
    plus = hodge_star_2form(B, g, orientation=1.0)
    minus = hodge_star_2form(B, g, orientation=-1.0)
    assert np.abs(plus + minus).max() <= 1e-14


def test_smoothsteps():
    for f in (smoothstep_c2, smoothstep_c3):
        assert f(0.0) == 0.0
        assert f(1.0) == 1.0
        assert f(-1.0) == 0.0
        assert f(2.0) == 1.0
        assert 0.0 < f(0.5) < 1.0
    assert np.allclose(smoothstep_c2(np.array([0.0, 1.0])), [0.0, 1.0])
