"""Shared numerics: stencils, quadrature, nullspaces, pointwise duality."""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from hkforms.bianchi import ClosednessSolution, ansatz_form_matrix, eguchi_hanson_profile
from hkforms.gibbons_hawking import GHData, GHPoint, dtheta
from hkforms import nahm, numerics
from hkforms.numerics import (
    FD_STEP,
    adaptive_simpson,
    composite_simpson,
    exterior_derivative_at,
    exterior_derivative_on_stencil,
    fd_weights,
    gauss_kronrod,
    grid_derivative,
    hodge_star_2form,
    integrate_to_infinity,
    loglog_slope,
    nullspace,
    partial_derivative,
    richardson_stencil,
    smoothstep_c2,
    smoothstep_c3,
    subspace_distance,
)
from hkforms.quotient import GroupActionSpec, QuotientChart


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
    out = grid_derivative(vals, x[1] - x[0])
    assert np.abs(out - expected).max() <= 1e-10


def test_grid_derivative_matrix_valued():
    x = np.linspace(0.0, 1.0, 21)
    vals = np.einsum("n,ab->nab", np.sin(x), np.eye(2))
    out = grid_derivative(vals, x[1] - x[0])
    assert np.abs(out[:, 0, 0] - np.cos(x)).max() <= 1e-8
    assert np.abs(out[:, 0, 1]).max() == 0.0


def test_grid_derivative_rejects_coarse_grids():
    with pytest.raises(ValueError):
        grid_derivative(np.zeros(5), 0.1)


def test_partial_derivative_richardson():
    f = lambda p: math.sin(p[0]) * p[1] ** 2
    x = np.array([0.7, 1.3])
    assert partial_derivative(f, x, 0) == pytest.approx(math.cos(0.7) * 1.3 ** 2, abs=1e-10)
    assert partial_derivative(f, x, 1) == pytest.approx(math.sin(0.7) * 2.6, abs=1e-10)


def test_richardson_stencil_is_every_point_partial_derivative_queries():
    # bit for bit, in order, signed zeros too: x + h e, x - h e, x + h/2 e, x - h/2 e
    rng = np.random.default_rng(28)
    for x in (np.array([0.7]), rng.standard_normal(4), np.array([-0.0, 0.0, -1.5, 2.0])):
        queried, inline = [], []
        for axis in range(x.size):
            partial_derivative(lambda p: queried.append(p.tobytes()) or 0.0, x, axis)
            e = np.zeros(x.size)
            e[axis] = 1.0
            for step in (FD_STEP, FD_STEP / 2.0):
                inline += [(x + step * e).tobytes(), (x - step * e).tobytes()]
        stencil = richardson_stencil(x)
        assert stencil.shape == (1 + 4 * x.size, x.size)
        assert stencil[0].tobytes() == x.tobytes()
        assert [row.tobytes() for row in stencil[1:]] == queried == inline


def test_exterior_derivative_of_exact_form_vanishes():
    # d(df) = 0 for f = x0 x1 + x2^3
    def df(p):
        return np.array([p[1], p[0], 3.0 * p[2] ** 2, 0.0])

    out = exterior_derivative_at(df, np.array([0.3, -0.7, 0.4, 0.1]))
    assert max(abs(v) for v in out.values()) <= 1e-9


def test_exterior_derivative_known_two_form():
    # d(x1 dx0) = -dx0^dx1: coefficient -1 on (0, 1)
    def comp(p):
        return np.array([p[1], 0.0, 0.0, 0.0])

    out = exterior_derivative_at(comp, np.array([0.2, 0.5, 0.0, 0.0]))
    assert out[(0, 1)] == pytest.approx(-1.0, abs=1e-10)


def _dict_exterior_derivative(components, x, dim):
    # reference: the exterior derivative of a field given as {index tuple: coefficient}
    base = components(np.asarray(x, dtype=float))
    out = {}
    for key in sorted(base.keys()):
        for mu in range(dim):
            if mu in key:
                continue
            dmu = partial_derivative(lambda p, k=key: components(p)[k],
                                     np.asarray(x, float), mu)
            pos = sum(1 for idx in key if idx < mu)
            merged = tuple(sorted(key + (mu,)))
            out[merged] = out.get(merged, 0.0) + (-1.0) ** pos * dmu
    return out


def _form_fields():
    # the library's form fields on R^4 as arrays, with sample points
    rng = np.random.default_rng(12)
    d = GHData(1.0)
    gh_points = [np.append(rng.standard_normal(3) + 1.0, rng.random()) for _ in range(3)]
    yield pytest.param(lambda c: dtheta(GHPoint(c[:3], c[3]), d), gh_points, id="gh-dtheta")
    eh = eguchi_hanson_profile(0.5)
    eh_points = [np.array([1.0 + 2.0 * rng.random(), 0.4 + 2.2 * rng.random(),
                           6.0 * rng.random(), 6.0 * rng.random()]) for _ in range(3)]
    for axis in (1, 2, 3):
        F = ClosednessSolution(axis, eh)
        yield pytest.param(lambda c, axis=axis, F=F: ansatz_form_matrix(axis, eh, c, F),
                           eh_points, id=f"bianchi-phi{axis}")
    chart = QuotientChart(GroupActionSpec("calabi_circle", level_shift=0.5))
    chart_points = [rng.standard_normal(4) for _ in range(3)]

    def omega(axis, v):
        # the pushed-down omega_axis at one chart point, from a one-row frame stack
        T = chart._horizontal_frames(v[None])[1][0]
        return T.T @ chart.spec.structure.omega_matrix(axis) @ T

    def beta(v):
        (p,), _, (T_pinv,) = chart._horizontal_frames(v[None])
        return T_pinv @ chart.rotation_ambient(p) @ omega(2, v)

    for axis in (1, 2, 3):
        yield pytest.param(lambda v, axis=axis: omega(axis, v), chart_points,
                           id=f"quotient-omega{axis}")
    yield pytest.param(beta, chart_points, id="quotient-beta")


@pytest.mark.parametrize("field, points", list(_form_fields()))
def test_exterior_derivative_matches_dict_route_bit_for_bit(field, points):
    # the array route differences the same components in the same order as the
    # dict route, so every coefficient and the evaluation count agree exactly;
    # so does the route through the field's values on the stencil, built once each
    def counted(fn, calls):
        def wrapped(x):
            calls.append(None)
            return fn(x)
        return wrapped

    def as_dict(x):
        B = field(x)
        return {k: B[k] for k in itertools.combinations(range(4), B.ndim)}

    for x in points:
        array_calls, dict_calls = [], []
        got = exterior_derivative_at(counted(field, array_calls), x)
        want = _dict_exterior_derivative(counted(as_dict, dict_calls), x, 4)
        rows = exterior_derivative_on_stencil([field(p) for p in richardson_stencil(x)], x)
        assert list(got) == list(want) == list(rows)
        assert all(got[k] == want[k] == rows[k] for k in want)
        assert len(array_calls) == len(dict_calls) == 49


def test_exterior_derivative_on_stencil_builds_17_rows_and_reads_them_49_times(monkeypatch):
    # a stacked field is called once, on the 17 stencil rows; exterior_derivative_at
    # still reads its components 49 times, each a lookup into those rows
    reads, stacks = [], []
    inner = numerics.exterior_derivative_at
    monkeypatch.setattr(numerics, "exterior_derivative_at", lambda components, x: inner(
        lambda p: (reads.append(p.tobytes()), components(p))[1], x))

    def stacked(points):    # the 1-form x1 x2 dx0 + x0^2 dx1 + x3 dx2 at each row
        stacks.append(len(points))
        return np.array([[p[1] * p[2], p[0] ** 2, p[3], 0.0] for p in points])

    x = np.array([0.3, -0.7, 0.4, 0.1])
    stencil = richardson_stencil(x)
    out = exterior_derivative_on_stencil(stacked(stencil), x)
    assert stacks == [17]
    assert len(reads) == 49 and set(reads) == {p.tobytes() for p in stencil}
    assert out == inner(lambda p: stacked(p[None])[0], x)
    with pytest.raises(ValueError):    # one value per stencil row
        exterior_derivative_on_stencil(stacked(stencil[:-1]), x)


def _numpy_fd_weights(x0, xs, m):
    """Fornberg's recurrence on numpy scalars in a 2-D array, returned as a
    column view: the reference for fd_weights' Python-float recurrence."""
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1, c4 = 1.0, xs[0] - x0
    for i in range(1, n):
        c2, c5, c4 = 1.0, c4, xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(min(i, m), 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(min(i, m), 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def test_fd_weights_match_the_numpy_scalar_recurrence_bit_for_bit():
    # the centred and both skewed stencils of grid_derivative, at random steps
    # and at the steps of the Nahm suite's grids
    rng = np.random.default_rng(31)
    suite_h = [nahm.one_pole_state(eps, 1.0, nodes).h for eps, nodes in
               ((0.1, 2001), (1e-3, 20001), (1e-2, 8001), (5e-3, 8001), (2.5e-3, 8001),
                (1e-2, 501), (1e-2, 1001), (1e-2, 2001))]
    npts = 2001
    for h in list(10.0 ** rng.uniform(-6.0, 0.0, 300)) + suite_h:
        stencils = [(0.0, np.arange(-3, 4) * h)]
        for i in range(3):
            stencils += [(i * h, np.arange(7) * h),
                         ((npts - 1 - i) * h, (npts - 7 + np.arange(7)) * h)]
        for x0, xs in stencils:
            assert fd_weights(x0, xs, 1).tobytes() == _numpy_fd_weights(x0, xs, 1).tobytes()
    # the weights keep the reference's strided layout, which the edge rows'
    # tensordot rounds by
    values = rng.standard_normal((npts, 3, 4))
    h = suite_h[0]
    edge = np.tensordot(_numpy_fd_weights(0.0, np.arange(7) * h, 1), values[:7], axes=(0, 0))
    assert np.array_equal(grid_derivative(values, h)[0], edge)


@pytest.mark.parametrize("nodes", [7, 8, 13, 101, 501, 2001, 3000])
def test_stacked_grid_derivative_equals_the_per_component_calls(nodes):
    rng = np.random.default_rng(nodes)
    values = rng.standard_normal((nodes, 3, 4))
    h = float(rng.random()) + 1e-3
    stacked = grid_derivative(values, h)
    for i in range(3):
        assert np.array_equal(stacked[:, i], grid_derivative(values[:, i].copy(), h))


def test_adaptive_simpson_smooth():
    assert adaptive_simpson(math.sin, 0.0, math.pi, 1e-12) == pytest.approx(2.0, abs=1e-11)


def test_adaptive_simpson_relative_mode():
    # huge integrand with relative tolerance terminates quickly and accurately
    val = adaptive_simpson(lambda x: 1e12 * math.exp(x), 0.0, 1.0, 1e-10, rel=1e-10)
    assert val == pytest.approx(1e12 * (math.e - 1.0), rel=1e-9)


def test_adaptive_simpson_leaves_no_reference_cycle():
    # the integrand (and all it closes over) must die with the call, without
    # waiting for the cycle collector
    class Integrand:
        def __call__(self, x):
            return x * x

    f = Integrand()
    ref = weakref.ref(f)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert adaptive_simpson(f, 0.0, 1.0, 1e-12) == pytest.approx(1.0 / 3.0, abs=1e-12)
        del f
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def counting(f):
    """f together with a list whose length is the number of calls made to it."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    return counted, calls


@pytest.mark.parametrize("degree", range(23))
def test_gauss_kronrod_exact_on_one_panel(degree):
    # Kronrod 15 integrates degree <= 22 exactly; a tolerance the panel always
    # meets keeps the Gauss-Kronrod difference from forcing a bisection
    f, calls = counting(lambda x: (x - 0.2) ** degree)
    exact = ((1.3 - 0.2) ** (degree + 1) - (-0.7 - 0.2) ** (degree + 1)) / (degree + 1)
    assert gauss_kronrod(f, -0.7, 1.3, 1.0) == pytest.approx(exact, rel=1e-14, abs=1e-15)
    assert len(calls) == 15


def test_gauss_kronrod_gauss_part_is_exact_to_degree_13():
    # below degree 14 the Gauss estimate is exact too, so one panel is accepted
    # at any tolerance; degree 14 separates the two rules and bisects
    for degree in range(14):
        f, calls = counting(lambda x, d=degree: x ** d)
        assert gauss_kronrod(f, 0.0, 1.0, 1e-14) == pytest.approx(1.0 / (degree + 1), rel=1e-14)
        assert len(calls) == 15, degree
    f, calls = counting(lambda x: x ** 14)
    assert gauss_kronrod(f, 0.0, 1.0, 1e-14) == pytest.approx(1.0 / 15.0, rel=1e-14)
    assert len(calls) > 15


def test_gauss_kronrod_bisects_onto_a_kink():
    f, calls = counting(lambda x: abs(x - 0.3))
    assert gauss_kronrod(f, 0.0, 1.0, 1e-10) == pytest.approx(0.045 + 0.245, abs=1e-10)
    # only panels holding the kink are split: about 30 evaluations per level
    assert 15 * 10 < len(calls) < 30 * 48
    kink_side = sorted(calls, key=lambda x: abs(x - 0.3))
    assert abs(kink_side[0] - 0.3) < 1e-8


@pytest.mark.parametrize("f,a,b", [
    (math.sin, 0.0, math.pi),
    (math.exp, -3.0, 2.5),
    (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0),
    (lambda x: math.exp(-x) * math.cos(7.0 * x), 0.0, 6.0),
    (lambda x: math.sqrt(x), 1e-3, 4.0),
    (lambda x: math.log(x), 10.0, 0.5),
], ids=["sin", "exp", "runge", "damped-cosine", "sqrt", "log-reversed"])
def test_gauss_kronrod_matches_scipy_quad(f, a, b):
    from scipy.integrate import quad
    reference = quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    assert gauss_kronrod(f, a, b, 1e-13) == pytest.approx(reference, abs=1e-13)


def capped(f, limit=2000):
    """f that raises once it has been called `limit` times."""
    calls = []

    def g(x):
        calls.append(x)
        if len(calls) > limit:
            raise RuntimeError(f"more than {limit} evaluations")
        return f(x)
    return g


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("rule", ["simpson", "kronrod"])
def test_a_non_finite_integrand_value_returns_at_once(rule, bad):
    # a NaN or inf fails every tolerance test; bisecting it ran toward depth
    # 48, still running after 200,000 evaluations
    f = capped(lambda x: x if x <= 0.7 else bad)
    if rule == "simpson":
        value = adaptive_simpson(f, 0.0, 1.0, 1e-10)
    else:
        value = gauss_kronrod(f, 0.0, 1.0, 1e-10)
    assert math.isnan(value) if math.isnan(bad) else not math.isfinite(value)
    # through the substitution toward infinity as well
    assert not math.isfinite(integrate_to_infinity(capped(lambda x: bad), 0.0, 1.0, 1e-10))


def test_integrate_to_infinity():
    val = integrate_to_infinity(lambda x: math.exp(-x), 0.0, 1.0, 1e-10)
    assert val == pytest.approx(1.0, rel=1e-9)
    val = integrate_to_infinity(lambda x: 1.0 / (1.0 + x) ** 2, 0.0, 1.0, 1e-10)
    assert val == pytest.approx(1.0, rel=1e-9)


def test_composite_simpson_exact_on_cubics():
    x = np.linspace(0.0, 1.0, 11)
    vals = x ** 3
    assert composite_simpson(vals, x[1] - x[0]) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        composite_simpson(np.zeros(10), 0.1)


def test_composite_simpson_matches_the_exact_weighted_sum():
    # the slice sums reorder the weighted sum 1, 4, 2, ..., 2, 4, 1; pairwise
    # summation errs by at most about log2(n) eps of the absolute sum
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
    for n in (3, 5, 20_001):
        vals = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        w = np.ones(n)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        got = composite_simpson(vals, 0.3)
        for col in range(2):
            v = vals[:, col]
            exact = 0.1 * complex(math.fsum(w * v.real), math.fsum(w * v.imag))
            scale = 0.1 * float(np.sum(w * np.abs(v)))
            assert abs(got[col] - exact) <= (np.log2(n) + 4) * eps * scale


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
    star = hodge_star_2form(B, g, 1.0)
    expected = np.zeros((4, 4))
    expected[2, 3], expected[3, 2] = 1.0, -1.0
    assert np.abs(star - expected).max() <= 1e-14
    # involution on 2-forms in four dimensions
    assert np.abs(hodge_star_2form(star, g, 1.0) - B).max() <= 1e-14


def test_hodge_star_2form_matches_form_star():
    # the Levi-Civita table against the merge-sign star of exterior.forms
    from hkforms.exterior import FormVector, hodge_star
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 4))
    B = M - M.T
    A = rng.standard_normal((4, 4))
    g = A @ A.T + 4.0 * np.eye(4)
    star = hodge_star_2form(B, g, 1.0)
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
