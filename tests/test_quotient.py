"""Hyperkahler quotient charts: moments, projectors, forms, growth bounds."""

import math

import numpy as np
import pytest

from hkforms import quotient, suites
from hkforms.bianchi import eguchi_hanson_profile, ratio
from hkforms.numerics import (FD_STEP, SU2_BASIS, nullspace, partial_derivative,
                              richardson_stencil)
from hkforms.quotient import (
    GroupActionSpec,
    QuotientChart,
    ambient_linear_part,
    calabi_orbit_data,
    flat_structure,
    growth_check,
    to_complex,
    to_real,
)

TN = GroupActionSpec("taubnut_R")
CAL = GroupActionSpec("calabi_circle", level_shift=0.5)
CHART_TN = QuotientChart(TN)
CHART_CAL = QuotientChart(CAL)


# -- reference formulas, written out apart from the package ------------------

def _canonical_pairing(X, Y):
    """sum_j dz_j ^ dw_j evaluated on two real tangents."""
    zX, wX = to_complex(X)
    zY, wY = to_complex(Y)
    return complex(np.sum(zX * wY - zY * wX))


def _cotangent_moment(Y_base, z, w):
    """Canonical cotangent-lift moment: the tautological form on the lift."""
    return complex(np.sum(np.asarray(w) * np.asarray(Y_base(np.asarray(z)))))


def _act(spec, t, z, w):
    """The finite group action whose generator is spec.generator."""
    z, w = np.array(z, dtype=complex), np.array(w, dtype=complex)
    if spec.model == "taubnut_R":
        return (np.array([np.exp(1j * t) * z[0], z[1] + t]),
                np.array([np.exp(-1j * t) * w[0], w[1]]))
    return np.exp(1j * t) * z, np.exp(-1j * t) * w


def _frame(chart, u):
    """(p, T, T+) at one chart point, from a one-row frame stack."""
    return [arr[0] for arr in chart._horizontal_frames(np.asarray(u, dtype=float)[None])]


def _metric(chart, u):
    """Gram matrix of the quotient metric on chart-coordinate directions."""
    T = _frame(chart, u)[1]
    return T.T @ T


def _kahler_form(chart, axis, u):
    """Pushed-down omega_axis at one chart point, T^T omega T: the per-point
    oracle of the checks' stacked forms."""
    T = _frame(chart, u)[1]
    return T.T @ chart.spec.structure.omega_matrix(axis) @ T


def _pushdown_field(chart, field, u):
    """Chart components T+ X of an ambient field at one chart point: the
    per-point oracle of the checks' stacked fields."""
    p, _, T_pinv = _frame(chart, u)
    return T_pinv @ field(p)


# -- flat structure ------------------------------------------------------------

def test_flat_quaternionic_identities():
    for n in (1, 2, 3):
        Q = flat_structure(n)
        assert Q is flat_structure(n) and Q.dim == 4 * n
        I, J, K = Q.I, Q.J, Q.K
        eye = np.eye(4 * n)
        assert np.array_equal(I @ I, -eye)
        assert np.array_equal(J @ J, -eye)
        assert np.array_equal(K @ K, -eye)
        assert np.array_equal(I @ J @ K, -eye)


def test_flat_complex_structures_act_on_the_packed_layout():
    # I is multiplication by i; J sends (z, w) to (-conj(w), conj(z))
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        Q = flat_structure(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.array_equal(Q.I @ _sliced_to_real(z, w), _sliced_to_real(1j * z, 1j * w))
        assert np.array_equal(Q.J @ _sliced_to_real(z, w),
                              _sliced_to_real(-np.conj(w), np.conj(z)))


def test_omega_c_is_canonical_pairing():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        Q = flat_structure(n)
        Wc = Q.omega_matrix(2) + 1j * Q.omega_matrix(3)
        for _ in range(20):
            X, Y = rng.standard_normal(4 * n), rng.standard_normal(4 * n)
            assert X @ Wc @ Y == pytest.approx(_canonical_pairing(X, Y), abs=1e-12)


def test_omegas_constant_and_closed_by_construction():
    for n in (1, 2, 3):
        Q = flat_structure(n)
        for axis in (1, 2, 3):
            W = Q.omega_matrix(axis)
            assert W is Q.omega_matrix(axis) and not W.flags.writeable
            assert np.array_equal(W, Q.complex_structure(axis).T)
            assert np.abs(W + W.T).max() == 0
            assert abs(np.linalg.det(W)) == pytest.approx(1.0)


@pytest.mark.parametrize("axis", (0, -1, 4))
def test_quotient_forms_refuse_axes_other_than_1_2_3(axis):
    # axis 0 used to read omega_3 and pass closedness_residual at 4.6e-12
    u = np.array([0.3, -0.2, 0.5, 0.1])
    calls = (lambda: flat_structure(2).omega_matrix(axis),
             lambda: CHART_CAL.closedness_residual(axis, np.full(4, 0.3)))
    for call in calls:
        with pytest.raises(ValueError):
            call()


# -- moment maps -----------------------------------------------------------------

def test_taubnut_moment_example():
    mu1, muc = TN.moment_maps(np.array([1.0, 1j]), np.array([1.0, -1j]))
    assert muc == pytest.approx(0.0)
    assert mu1 == pytest.approx(1.0)


def test_calabi_moment_on_level_points():
    # zero-section point of the level |z|^2 - |w|^2 = 1
    mu1, muc = CAL.moment_maps(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    assert mu1 == pytest.approx(0.0)
    assert muc == pytest.approx(0.0)
    # off-level: mu_1 reports the defect
    mu1, muc = CAL.moment_maps(np.array([1.0, 0.0]), np.array([0.0, 5.0]))
    assert muc == pytest.approx(0.0)
    assert mu1 == pytest.approx(12.5)


def test_moment_equivariance():
    rng = np.random.default_rng(3)
    for spec in (TN, CAL):
        for _ in range(100):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            t = float(rng.standard_normal())
            before = spec.moment_maps(z, w)
            after = spec.moment_maps(*_act(spec, t, z, w))
            assert abs(before[0] - after[0]) <= 1e-12
            assert abs(before[1] - after[1]) <= 1e-12
        # the reference action is the flow of the package's generator
        flow = partial_derivative(lambda tt: to_real(*_act(spec, tt[0], z, w)), np.zeros(1), 0)
        assert np.abs(flow - spec.generator_real(to_real(z, w))).max() <= 1e-9


def _moment_gradient_defect(spec, p):
    # the rows are iota(Y) omega_a; difference the displayed moment maps against them
    def mus(q):
        mu1, muc = spec.moment_maps(*to_complex(q))
        return np.array([mu1, muc.real, muc.imag])

    fd = np.column_stack([partial_derivative(mus, p, k) for k in range(p.size)])
    return float(np.abs(fd - spec.moment_gradient_rows(p)).max())


def test_moment_defining_identity():
    # d mu = iota(Y) omega for all three components, both models
    rng = np.random.default_rng(4)
    for spec in (TN, CAL):
        for _ in range(20):
            assert _moment_gradient_defect(spec, rng.standard_normal(8)) <= 1e-9


def test_generator_preserves_kahler_forms():
    # the infinitesimal action is omega-antisymmetric: A^T W + W A = 0
    for spec in (TN, CAL):
        A = ambient_linear_part(spec.generator_real, 8)
        for axis in (1, 2, 3):
            W = spec.structure.omega_matrix(axis)
            assert np.abs(A.T @ W + W @ A).max() <= 1e-14


def test_cotangent_moment_reproduces_models():
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        tn_val = _cotangent_moment(lambda zz: np.array([1j * zz[0], 1.0]), z, w)
        assert tn_val == pytest.approx(TN.moment_maps(z, w)[1], abs=1e-12)
        cal_val = _cotangent_moment(lambda zz: 1j * zz, z, w)
        assert cal_val == pytest.approx(CAL.moment_maps(z, w)[1], abs=1e-12)
    assert _cotangent_moment(lambda zz: np.zeros(2), z, w) == 0


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        GroupActionSpec("torus")


@pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
def test_non_finite_level_shift_rejected(shift):
    for model in ("taubnut_R", "calabi_circle"):
        with pytest.raises(ValueError, match="finite"):
            GroupActionSpec(model, level_shift=shift)


# -- level sets and horizontal geometry -------------------------------------------

def test_taubnut_level_set_examples():
    p = CHART_TN.solve_level_set(np.array([1.0, 0.0, 1.0, 0.0]))
    z, w = to_complex(p)
    assert z[1] == pytest.approx(0.0)
    assert w[1] == pytest.approx(-1j)
    p0 = CHART_TN.solve_level_set(np.zeros(4))
    assert np.abs(p0).max() == 0.0


def test_level_set_residuals():
    rng = np.random.default_rng(6)
    for chart in (CHART_TN, CHART_CAL):
        for _ in range(25):
            p = chart.solve_level_set(rng.standard_normal(4))
            assert chart.spec.moment_residual(p) <= 1e-12


def test_calabi_phase_slice():
    # z . conj(v0) with v0 = (1, 0) is real-positive on the chart
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = CHART_CAL.representative(rng.standard_normal(4))
        z, _ = to_complex(p)
        assert z[0].imag == pytest.approx(0.0, abs=1e-15)
        assert z[0].real > 0


def test_projector_properties():
    rng = np.random.default_rng(8)
    for chart in (CHART_TN, CHART_CAL):
        for _ in range(10):
            p = chart.representative(rng.standard_normal(4))
            P = chart.projector(p)
            assert np.abs(P @ P - P).max() <= 1e-10
            assert np.abs(P - P.T).max() <= 1e-10
            assert np.abs(P @ chart.spec.generator_real(p)).max() <= 1e-10
            assert np.abs(chart.spec.moment_gradient_rows(p) @ P).max() <= 1e-10


def _svd_projector(rows):
    """Orthogonal projector onto the nullspace of the row constraints, by SVD."""
    N = nullspace(rows)
    return N @ N.conj().T


def test_svd_projector_oracle():
    rows = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
    P = _svd_projector(rows)
    assert np.abs(P @ P - P).max() <= 1e-12
    assert np.abs(P @ rows.T).max() <= 1e-12


def test_projector_matches_svd_oracle():
    rng = np.random.default_rng(24)
    for chart in (CHART_TN, CHART_CAL):
        for _ in range(20):
            p = chart.representative(rng.standard_normal(4))
            rows = np.vstack([chart.spec.moment_gradient_rows(p), chart.spec.generator_real(p)])
            assert np.abs(chart.projector(p) - _svd_projector(rows)).max() <= 1e-14


def test_projector_record_sees_a_vertical_frame_that_is_not_orthogonal(monkeypatch):
    # the closed-form projector assumes |IY| = |JY| = |KY| = |Y|; stretching the
    # mu_1 gradient by 1.001 breaks that and the *-projector records must fail
    for tag in ("taubnut", "calabi"):
        assert _quotient_record(f"{tag}-projector").passed
    rows = GroupActionSpec.moment_gradient_rows
    monkeypatch.setattr(GroupActionSpec, "moment_gradient_rows",
                        lambda spec, p: rows(spec, p) * np.array([[1.001], [1.0], [1.0]]))
    for tag in ("taubnut", "calabi"):
        record = _quotient_record(f"{tag}-projector")
        assert not record.passed
        assert record.measured >= 1e-4


def test_chart_map_well_conditioned():
    rng = np.random.default_rng(9)
    for chart in (CHART_TN, CHART_CAL):
        for _ in range(10):
            T = _frame(chart, rng.standard_normal(4))[1]
            s = np.linalg.svd(T, compute_uv=False)
            assert s[0] / s[-1] < 50.0


# -- quotient metric and forms ------------------------------------------------------

def test_taubnut_metric_identity_at_origin():
    assert np.abs(_metric(CHART_TN, np.zeros(4)) - np.eye(4)).max() <= 1e-12


def test_metric_positive_definite():
    rng = np.random.default_rng(10)
    for chart in (CHART_TN, CHART_CAL):
        for _ in range(100):
            g = _metric(chart, rng.standard_normal(4))
            assert np.linalg.eigvalsh(g).min() > 0


def test_taubnut_forms_flat_at_origin():
    expected = {
        1: np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], float),
        2: np.array([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]], float),
        3: np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]], float),
    }
    for axis, mat in expected.items():
        assert np.abs(_kahler_form(CHART_TN, axis, np.zeros(4)) - mat).max() <= 1e-12


def test_quotient_forms_closed():
    rng = np.random.default_rng(11)
    for chart in (CHART_TN, CHART_CAL):
        for _ in range(2):
            u = 0.7 * rng.standard_normal(4)
            for axis in (1, 2, 3):
                assert chart.closedness_residual(axis, u) <= 1e-5


def test_complex_structures_reconstructed_from_forms():
    # I_i = -g^{-1} Omega_i satisfies the quaternion relations pointwise
    rng = np.random.default_rng(12)
    for chart in (CHART_TN, CHART_CAL):
        for _ in range(5):
            u = 0.6 * rng.standard_normal(4)
            g = _metric(chart, u)
            ginv = np.linalg.inv(g)
            Is = [-ginv @ _kahler_form(chart, axis, u) for axis in (1, 2, 3)]
            eye = np.eye(4)
            for M in Is:
                assert np.abs(M @ M + eye).max() <= 1e-8
            assert np.abs(Is[0] @ Is[1] @ Is[2] + eye).max() <= 1e-8


def test_rotation_relations():
    rng = np.random.default_rng(13)
    for chart in (CHART_TN, CHART_CAL):
        for _ in range(2):
            u = 0.7 * rng.standard_normal(4)
            res = chart.omegas_relation_residuals(u)
            assert max(res.values()) <= 1e-5


def test_beta_exactness():
    rng = np.random.default_rng(14)
    for chart in (CHART_TN, CHART_CAL):
        u = 0.7 * rng.standard_normal(4)
        assert chart.beta_exactness_residual(u) <= 1e-5


# -- horizontal frame memo ------------------------------------------------------

def _stencil(u, h):
    """The 17 points every chart stencil visits, built as the stencils build them."""
    pts = [u]
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1.0
        for step in (h, h / 2.0):
            pts += [u + step * e, u - step * e]
    return pts


def _count_batches(chart):
    # the number of chart points of every stacked chart-map call
    batches = []
    chart_map = chart._chart_map
    chart._chart_map = lambda U: (batches.append(len(U)), chart_map(U))[1]
    return batches


def _fd_checks(chart):
    """Every finite-difference check on the chart, as functions of u."""
    checks = [lambda u, axis=axis: chart.closedness_residual(axis, u) for axis in (1, 2, 3)]
    checks += [chart.omegas_relation_residuals, chart.beta_exactness_residual,
               lambda u: chart.lie_derivatives(chart.rotation_ambient, u)]
    if chart.spec.model == "taubnut_R":
        checks.append(lambda u: chart.lie_derivatives(chart.triholomorphic_ambient, u))
    return checks


def test_residuals_build_one_frame_per_stencil_point():
    # each check builds the 17 frames of its stencil in one chart-map call,
    # and builds them again when asked again: the chart keeps no frames
    rng = np.random.default_rng(18)
    for spec in (TN, CAL):
        u = 0.7 * rng.standard_normal(4)
        chart = QuotientChart(spec)
        batches = _count_batches(chart)
        for check in _fd_checks(chart):
            for _ in range(2):
                batches.clear()
                check(u)
                assert batches == [17]
        chart = QuotientChart(spec)
        for check in _fd_checks(chart):
            check(u)
        assert vars(chart) == {"spec": spec}


def _scalar_chart_map(spec, u):
    """The representative and its Jacobian at one point, written out with numpy
    scalars and packed slice by slice apart from to_real: the reference for the
    stacked chart map."""
    if spec.model == "taubnut_R":
        z1 = u[0] + 1j * u[1]
        w1 = u[2] + 1j * u[3]
        z = np.array([z1, 1j * (0.5 * (abs(z1) ** 2 - abs(w1) ** 2) - spec.level_shift)])
        w = np.array([w1, -1j * z1 * w1])
        dz1, dw1 = np.array([1.0, 1j, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 1j])
        dz2 = 1j * u * np.array([1.0, 1.0, -1.0, -1.0])
        rows = (dz1, dz2, dw1, -1j * (dz1 * w1 + z1 * dw1))
    else:
        zeta = u[0] + 1j * u[1]
        eta = u[2] + 1j * u[3]
        dzeta, deta = np.array([1.0, 1j, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 1j])
        level = 2.0 * spec.level_shift
        denom = 1.0 + abs(zeta) ** 2
        mu = math.sqrt(abs(eta) ** 2 + level / denom)
        z = mu * np.array([1.0, zeta])
        w = eta * np.array([-zeta, 1.0])
        c = -level / denom ** 2
        dmu = u * np.array([c, c, 1.0, 1.0]) / mu
        rows = (dmu, dmu * zeta + mu * dzeta, -(deta * zeta + eta * dzeta), deta)
    C = np.array(rows, dtype=complex)
    return _sliced_to_real(z, w), np.column_stack([_sliced_to_real(C[:2, k], C[2:, k])
                                                   for k in range(4)])


def _scalar_frame(spec, u):
    """(p, T, T+) at one point: the projector from the vertical rows one point at a time."""
    p, J = _scalar_chart_map(spec, u)
    Y = to_real(*spec.generator(*to_complex(p)))
    R = np.vstack([Y @ spec.structure.omega_matrix(axis) for axis in (1, 2, 3)] + [Y])
    T = (np.eye(8) - R.T @ R / (Y @ Y)) @ J
    return p, T, np.linalg.solve(T.T @ T, T.T)


@pytest.mark.parametrize("spec", [TN, GroupActionSpec("taubnut_R", -0.4), CAL,
                                  GroupActionSpec("calabi_circle", 0.9)],
                         ids=lambda s: f"{s.model}-{s.level_shift}")
def test_batched_frames_match_the_point_by_point_oracle(spec):
    # every frame of a stencil batch, the neighbours' too, against its own point
    rng = np.random.default_rng(27)
    chart = QuotientChart(spec)
    for _ in range(50):
        u = 0.7 * rng.standard_normal(4)
        frames = chart._horizontal_frames(richardson_stencil(u))
        for i, v in enumerate(_stencil(u, FD_STEP)):
            for got, want in zip(frames, _scalar_frame(spec, v), strict=True):
                assert np.abs(got[i] - want).max() <= 1e-14 * np.abs(want).max()


def test_a_stencil_reaching_past_the_calabi_domain_keeps_its_centre():
    # level |z|^2 - |w|^2 = -1: mu^2 = |eta|^2 - 1 / (1 + |zeta|^2) at eta real, so
    # u is inside by 4e-5 while its two stencil points at eta - h, eta - h/2 are outside
    chart = QuotientChart(GroupActionSpec("calabi_circle", -0.5))
    u = np.array([0.0, 0.0, 1.0 + 2e-5, 0.0])
    outside = [v for v in _stencil(u, FD_STEP) if abs(v[2]) ** 2 - 1.0 / (1.0 + v[0] ** 2) <= 0]
    assert len(outside) == 2
    # the centre alone has a finite frame
    assert all(np.isfinite(arr).all() for arr in _frame(chart, u))
    # every finite-difference check refuses the stencil: no NaN frame of a
    # neighbour past the edge reaches a residual
    for check in _fd_checks(chart):
        with pytest.raises(ValueError, match="outside the level-set domain"):
            check(u)
    for v in outside:
        for ask in (chart.representative, lambda v: _frame(chart, v)):
            with pytest.raises(ValueError, match="outside the level-set domain"):
                ask(v)


# -- the shared Richardson difference --------------------------------------------

def _inline_richardson(fn, u, k, h):
    """(4 D(h/2) - D(h)) / 3 along e_k, written out apart from numerics.partial_derivative."""
    e = np.zeros(4)
    e[k] = 1.0

    def central(step):
        return (fn(u + step * e) - fn(u - step * e)) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def _inline_jacobian(chart, u):
    """Richardson Jacobian of the chart's representative, column by column."""
    return np.column_stack([_inline_richardson(chart.representative, u, k, FD_STEP)
                            for k in range(4)])


_SHIFTED_SPECS = [GroupActionSpec("taubnut_R", s) for s in (0.0, 0.4, -0.4)] \
    + [GroupActionSpec("calabi_circle", s) for s in (0.5, 0.9)]


@pytest.mark.parametrize("spec", _SHIFTED_SPECS, ids=lambda s: f"{s.model}-{s.level_shift}")
def test_representative_jacobian_matches_inline_stencil(spec):
    # a route that does not share the hand-written derivative: the difference
    # quotient of the representative itself
    chart = QuotientChart(spec)
    rng = np.random.default_rng(19)
    for _ in range(10):
        u = 0.7 * rng.standard_normal(4)
        (p,), (J,) = chart._chart_map(u[None])
        fd = _inline_jacobian(chart, u)
        assert np.array_equal(p, chart.representative(u))
        assert J.shape == (8, 4)
        assert np.abs(J - fd).max() <= 1e-10 * np.abs(fd).max()


@pytest.mark.parametrize("spec", _SHIFTED_SPECS, ids=lambda s: f"{s.model}-{s.level_shift}")
def test_representative_jacobian_is_tangent_to_the_level_set(spec):
    # d mu o J = 0: the moment gradients iota(Y) omega_a annihilate every column
    chart = QuotientChart(spec)
    rng = np.random.default_rng(23)
    for _ in range(10):
        u = 0.7 * rng.standard_normal(4)
        (p,), (J,) = chart._chart_map(u[None])
        assert np.abs(spec.moment_gradient_rows(p) @ J).max() <= 1e-12


def test_lie_derivative_matches_inline_stencil():
    # one form at a time, each with its own stencil: the stacked pass must not
    # move a single entry
    rng = np.random.default_rng(20)
    for spec in (TN, CAL):
        chart = QuotientChart(spec)
        u = 0.7 * rng.standard_normal(4)
        h = FD_STEP
        L, forms = chart.lie_derivatives(chart.rotation_ambient, u)
        assert L.shape == forms.shape == (3, 4, 4)
        for axis in (1, 2, 3):
            omega_fn = lambda v: _kahler_form(chart, axis, v)
            X_fn = lambda v: _pushdown_field(chart, chart.rotation_ambient, v)
            X, B = X_fn(u), omega_fn(u)
            dB = np.array([_inline_richardson(omega_fn, u, g, h) for g in range(4)])
            dX = np.array([_inline_richardson(X_fn, u, g, h) for g in range(4)])
            inline = np.array([[X @ dB[:, a, b] + dX[a, :] @ B[:, b] + B[a, :] @ dX[b, :]
                                for b in range(4)] for a in range(4)])
            assert np.array_equal(L[axis - 1], inline)
            assert np.array_equal(forms[axis - 1], B)


def test_residuals_are_nan_when_a_later_stencil_row_is(monkeypatch):
    # a NaN chart direction 3 in the frame at u + h e_2 reaches only some
    # coefficients, not the first; Python's max would return the largest finite one
    frames = QuotientChart._horizontal_frames

    def poisoned(self, U):
        p, T, T_pinv = frames(self, U)
        T[9, :, 3] = math.nan
        return p, T, T_pinv

    monkeypatch.setattr(QuotientChart, "_horizontal_frames", poisoned)
    u = np.array([0.3, -0.2, 0.5, 0.1])
    for chart in (CHART_TN, CHART_CAL):
        for axis in (1, 2, 3):
            assert math.isnan(chart.closedness_residual(axis, u))
        assert math.isnan(chart.beta_exactness_residual(u))
        assert all(math.isnan(v) for v in chart.omegas_relation_residuals(u).values())


def test_rotation_relations_evaluate_the_field_once_per_stencil_point():
    # u and the 16 points of the four Richardson stencils: one call on all 17
    # rows, not one for each of the three forms
    rng = np.random.default_rng(25)
    for spec in (TN, CAL):
        chart = QuotientChart(spec)
        calls = []
        field = chart.rotation_ambient
        chart.rotation_ambient = lambda p: (calls.append(p.shape), field(p))[1]
        chart.omegas_relation_residuals(0.7 * rng.standard_normal(4))
        assert calls == [(17, 8)]


def test_closedness_and_beta_checks_build_each_field_once_per_stencil_point(monkeypatch):
    # each differenced field arrives as one 17-row stack, the forms' values at u
    # in row 0; the beta check pushes the rotation field down once, on all rows
    stacks = []
    on_stencil = quotient.exterior_derivative_on_stencil
    monkeypatch.setattr(quotient, "exterior_derivative_on_stencil",
                        lambda values, x: (stacks.append(values), on_stencil(values, x))[1])
    rng = np.random.default_rng(29)
    for spec in (TN, CAL):
        chart = QuotientChart(spec)
        u = 0.7 * rng.standard_normal(4)
        for axis in (1, 2, 3):
            stacks.clear()
            chart.closedness_residual(axis, u)
            (omega,) = stacks
            assert omega.shape == (17, 4, 4)
            for v, row in zip(_stencil(u, FD_STEP), omega, strict=True):
                assert np.array_equal(row, _kahler_form(chart, axis, v))
        stacks.clear()
        calls = []
        field = chart.rotation_ambient
        chart.rotation_ambient = lambda p: (calls.append(p.shape), field(p))[1]
        chart.beta_exactness_residual(u)
        (beta,) = stacks
        assert beta.shape == (17, 4) and calls == [(17, 8)]
        for v, row in zip(_stencil(u, FD_STEP), beta, strict=True):
            X = _pushdown_field(chart, field, v)
            assert np.array_equal(row, X @ _kahler_form(chart, 2, v))


def _lstsq_pushdown(chart, field, u):
    """The least-squares chart components of P X, solved by lstsq at every call."""
    p = chart.representative(u)
    coeffs, *_ = np.linalg.lstsq(_frame(chart, u)[1], chart.projector(p) @ field(p),
                                 rcond=None)
    return coeffs


@pytest.mark.parametrize("spec", [GroupActionSpec("taubnut_R", s) for s in (0.0, 0.4, -0.4)]
                         + [GroupActionSpec("calabi_circle", s) for s in (0.5, 0.75, 0.9)],
                         ids=lambda s: f"{s.model}-{s.level_shift}")
def test_pushdown_field_matches_lstsq_oracle(spec):
    rng = np.random.default_rng(21)
    chart = QuotientChart(spec)
    # a linear field with vertical components too, which the projection removes
    A = rng.standard_normal((8, 8))
    fields = (chart.rotation_ambient, chart.triholomorphic_ambient, lambda p: p @ A.T)
    for _ in range(4):
        u = 0.7 * rng.standard_normal(4)
        p, _, T_pinv = chart._horizontal_frames(richardson_stencil(u))
        for field in fields:
            got = chart._pushdown(field, p, T_pinv)
            for v, row in zip(_stencil(u, FD_STEP), got, strict=True):
                oracle = _lstsq_pushdown(chart, field, v)
                assert np.abs(row - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("field", ["rotation_ambient", "triholomorphic_ambient"])
def test_ambient_fields_on_a_stack_equal_their_rows(field):
    # a stack of points gives the field at each, bit for bit; the triholomorphic
    # field once wrote only the first point of a stack
    rng = np.random.default_rng(33)
    field = getattr(CHART_TN, field)
    P = rng.standard_normal((17, 8))
    stacked = field(P)
    assert stacked.shape == P.shape
    for p, row in zip(P, stacked, strict=True):
        assert np.array_equal(row, field(p))


def test_triholomorphic_circle_annihilates_forms():
    rng = np.random.default_rng(15)
    for _ in range(3):
        u = 0.7 * rng.standard_normal(4)
        L, _ = CHART_TN.lie_derivatives(CHART_TN.triholomorphic_ambient, u)
        for axis in (1, 2, 3):
            assert np.abs(L[axis - 1]).max() <= 1e-5


def test_rotation_field_fixed_on_zero_section():
    X = _pushdown_field(CHART_TN, CHART_TN.rotation_ambient, np.array([0.7, -0.2, 0.0, 0.0]))
    assert np.abs(X).max() <= 1e-12


def test_rotating_field_bundle():
    u = np.array([0.4, -0.3, 0.5, 0.2])
    vec = _pushdown_field(CHART_TN, CHART_TN.rotation_ambient, u)
    assert vec.shape == (4,)
    assert np.abs(vec).max() > 1e-3      # nonzero away from the fixed set
    assert max(CHART_TN.omegas_relation_residuals(u).values()) <= 1e-5


# -- growth --------------------------------------------------------------------------

def _growth_points(seed=16):
    rng = np.random.default_rng(seed)
    pts = [rng.standard_normal(4) * s for s in np.linspace(0.5, 4.0, 12)]
    pts += [np.array([0.0, 0.0, t, 0.0]) for t in (0.1, 0.2, 0.5)]
    return np.array(pts)


def test_growth_rotation_field():
    report = growth_check(CHART_TN, CHART_TN.rotation_ambient, _growth_points())
    assert report.violations == 0
    assert report.linear_part_norm == pytest.approx(1.0)
    assert abs(report.c1_ambient - report.linear_part_norm) <= 0.05 * report.linear_part_norm
    assert report.c1_pushed <= report.c1_ambient + 1e-12
    assert abs(report.c1_pushed - report.linear_part_norm) <= 0.05 * report.linear_part_norm


def test_growth_pushed_never_exceeds_ambient():
    rng = np.random.default_rng(17)
    for chart in (CHART_TN, CHART_CAL):
        for _ in range(20):
            p = chart.representative(rng.standard_normal(4))
            X = chart.rotation_ambient(p)
            Xh = chart.projector(p) @ X
            assert np.linalg.norm(Xh) <= np.linalg.norm(X) + 1e-12


def test_growth_zero_field():
    report = growth_check(CHART_TN, lambda p: np.zeros(8), _growth_points())
    assert report.c1_pushed == 0.0
    assert report.c0 == 0.0
    assert report.violations == 0


# -- the Calabi quotient is the Eguchi-Hanson metric ------------------------------------

def test_su2_generator_normalization():
    E = SU2_BASIS
    comm = E[0] @ E[1] - E[1] @ E[0]
    assert np.abs(comm + E[2]).max() <= 1e-15


def test_calabi_orbit_data_refuses_charts_off_its_ray():
    # the ray z = (sqrt(1+t^2), 0), w = (0, t) lies on the level shift 1/2 only
    for spec in (GroupActionSpec("calabi_circle", level_shift=0.75), TN):
        with pytest.raises(ValueError):
            calabi_orbit_data(QuotientChart(spec), 0.4)


def test_calabi_orbit_biaxial_and_diagonal():
    for t in (0.0, 0.4, 1.1):
        d = calabi_orbit_data(CHART_CAL, t)
        assert abs(d["A_sq"] - d["B_sq"]) <= 1e-12
        assert d["cross_max"] <= 1e-12
        assert d["radial_cross"] <= 1e-9


def test_calabi_quotient_is_eguchi_hanson():
    """Arc-length matching against the Eguchi-Hanson profile.

    The identification sends the orbit coefficient A(t) to the profile's
    radial coordinate r.  The bolt radius fixes a_param = A(0) = 1/2, and the
    radial parts match after the factor 2 that converts the profile's
    literature display to the coframe normalization ds_1 = s_2 ^ s_3 used
    everywhere in this package (the same rescaling of the coframe halves the
    orbit coefficients and doubles the radial factor).
    """
    bolt = calabi_orbit_data(CHART_CAL, 0.0)
    a_param = math.sqrt(bolt["A_sq"])
    assert a_param == pytest.approx(0.5, abs=1e-12)
    assert bolt["C_sq"] <= 1e-12
    profile = eguchi_hanson_profile(a_param)
    ts = (0.25, 0.5, 0.9, 1.4, 2.0)
    a_estimates = []
    for t in ts:
        d = calabi_orbit_data(CHART_CAL, t)
        r = math.sqrt(d["A_sq"])
        # fiber coefficient: C^2 = r^2 (1 - (a/r)^4) to 1e-4
        f_eh, _, _, c_eh = profile.coefficients(r)
        c_expected = c_eh ** 2
        assert abs(d["C_sq"] - c_expected) <= 1e-4 * max(c_expected, 1.0)
        a_estimates.append((r ** 4 * (1.0 - d["C_sq"] / d["A_sq"])) ** 0.25)
        # radial coefficient: f_quotient dt = 2 f_EH dr along the ray
        h = 1e-5
        dr_dt = (math.sqrt(calabi_orbit_data(CHART_CAL, t + h)["A_sq"])
                 - math.sqrt(calabi_orbit_data(CHART_CAL, t - h)["A_sq"])) / (2.0 * h)
        f_quotient = math.sqrt(d["f_sq"])
        assert f_quotient == pytest.approx(2.0 * f_eh * dr_dt, rel=1e-4)
    # the bolt parameter inferred away from the bolt is uniform
    assert max(abs(a - a_param) for a in a_estimates) <= 1e-6


def test_calabi_ratio3_matches_quotient_coefficients():
    # ratio_3 = f c / (a b) from the extracted coefficients agrees with the
    # Eguchi-Hanson profile value at the identified radius (factor 2 from the
    # radial normalization, as in the metric match)
    for t in (0.5, 1.0):
        d = calabi_orbit_data(CHART_CAL, t)
        r = math.sqrt(d["A_sq"])
        h = 1e-5
        dr_dt = (math.sqrt(calabi_orbit_data(CHART_CAL, t + h)["A_sq"])
                 - math.sqrt(calabi_orbit_data(CHART_CAL, t - h)["A_sq"])) / (2.0 * h)
        quotient_ratio = (math.sqrt(d["f_sq"]) / dr_dt) * math.sqrt(d["C_sq"]) / d["A_sq"]
        assert quotient_ratio == pytest.approx(2.0 * ratio(3, eguchi_hanson_profile(0.5), r),
                                               rel=1e-4)


def _quotient_record(check):
    records, _ = suites.run_quotient(suites.SuiteConfig(seed=7))
    return next(r for r in records if r.check == check)


def test_calabi_orbit_record_sees_unequal_orbit_coefficients(monkeypatch):
    # scaling E_2 by 1.01 makes B^2 = 1.0201 A^2: the orbit is no longer biaxial
    assert _quotient_record("calabi-orbit-biaxial").passed
    E = SU2_BASIS
    monkeypatch.setattr(quotient, "SU2_BASIS", (E[0], 1.01 * E[1], E[2]))
    record = _quotient_record("calabi-orbit-biaxial")
    assert not record.passed
    assert record.measured >= 1e-3


def test_calabi_eguchi_hanson_deviation_sees_a_wrong_bolt():
    # the bolt fixes a = 1/2; against a = 0.55, C^2 is off by 0.044 at t = 0.9,
    # which is 0.086 relative
    right = suites._eguchi_hanson_deviation(CHART_CAL, eguchi_hanson_profile(0.5), 0.9)
    wrong = suites._eguchi_hanson_deviation(CHART_CAL, eguchi_hanson_profile(0.55), 0.9)
    assert right <= 1e-10
    assert wrong == pytest.approx(0.086, abs=1e-3)
    # nearer the bolt, the orbit radius lies inside the wrong profile's domain end
    with pytest.raises(ValueError):
        suites._eguchi_hanson_deviation(CHART_CAL, eguchi_hanson_profile(0.55), 0.25)


def _sliced_to_real(z, w):
    """The packed layout [x_1, y_1, ..., x_n, y_n, u_1, v_1, ..., u_n, v_n], slice by slice."""
    n = len(z)
    out = np.empty(4 * n)
    out[0:2 * n:2] = np.real(z)
    out[1:2 * n:2] = np.imag(z)
    out[2 * n::2] = np.real(w)
    out[2 * n + 1::2] = np.imag(w)
    return out


def test_representative_packing_is_bit_identical_to_to_real():
    rng = np.random.default_rng(17)
    for chart in (CHART_TN, CHART_CAL, QuotientChart(GroupActionSpec("taubnut_R", 0.3))):
        for _ in range(50):
            u = rng.uniform(-1.0, 1.0, 4)
            assert np.array_equal(chart.representative(u), _scalar_chart_map(chart.spec, u)[0])


def test_packing_is_the_float_view_of_the_complex_vector():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p = to_real(z, w)
        assert np.array_equal(p, _sliced_to_real(z, w))
        zz, ww = to_complex(p)
        assert np.array_equal(zz, z) and np.array_equal(ww, w)
        # views: they alias p
        assert np.shares_memory(zz, p) and np.shares_memory(ww, p)


# -- a representative off the level set ----------------------------------------------------

def _shift_representatives(monkeypatch, delta):
    """Build every representative on the level shift + delta(u), not the chart's own.

    The chart map's Jacobian at each point of a stack is then the Richardson
    Jacobian of the shifted representatives, so the frames follow the faulty map.
    """
    chart_map = QuotientChart._chart_map

    def shifted_point(chart, u):
        spec = chart.spec
        moved = GroupActionSpec(spec.model, spec.level_shift + delta(u))
        return chart_map(QuotientChart(moved), u[None])[0][0]

    def shifted(chart, U):
        point = lambda v: shifted_point(chart, v)
        return (np.array([point(u) for u in U]),
                np.array([np.column_stack([_inline_richardson(point, u, k, FD_STEP)
                                           for k in range(4)]) for u in U]))

    monkeypatch.setattr(QuotientChart, "_chart_map", shifted)


def test_a_shifted_level_set_fails_the_quotient_suite(monkeypatch):
    # a constant shift leaves a moment residual of 1e-3, which one Gauss-Newton
    # step cannot bring under 1e-12: the level-set solve raises
    _shift_representatives(monkeypatch, lambda u: 1e-3)
    records, details = suites.run_suite("quotient", suites.SuiteConfig(seed=7))
    assert [(r.check, r.passed) for r in records] == [("suite-error", False)]
    assert details["error"].startswith("ArithmeticError: level-set residual")


def test_a_point_dependent_level_shift_fails_the_closedness_records(monkeypatch):
    # a shift varying across the chart leaves the level set: the pushed-down
    # forms are no longer closed.  The rotation relations and beta exactness
    # are blind to this fault and stay near 1e-11.
    _shift_representatives(monkeypatch, lambda u: 1e-3 * u[0])
    rng = np.random.default_rng(22)
    for spec in (TN, CAL):
        chart = QuotientChart(spec)
        points = [0.7 * rng.standard_normal(4) for _ in range(2)]
        closed = max(chart.closedness_residual(axis, u) for u in points for axis in (1, 2, 3))
        assert closed > 1e-5    # the bound of *-forms-closed
        relations = max(max(chart.omegas_relation_residuals(u).values()) for u in points)
        beta = max(chart.beta_exactness_residual(u) for u in points)
        assert max(relations, beta) <= 1e-9


def _calabi_jacobian_without_dmu(chart, u):
    """The Calabi Jacobian with its d(mu) term dropped: dz = mu (0, d zeta)."""
    zeta, eta = u[0] + 1j * u[1], u[2] + 1j * u[3]
    mu = math.sqrt(abs(eta) ** 2 + 2.0 * chart.spec.level_shift / (1.0 + abs(zeta) ** 2))
    dzeta, deta = np.array([1.0, 1j, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 1j])
    C = np.array([np.zeros(4), mu * dzeta, -(deta * zeta + eta * dzeta), deta])
    return np.column_stack([_sliced_to_real(C[:2, k], C[2:, k]) for k in range(4)])


def test_a_calabi_jacobian_without_its_dmu_term_fails_the_records(monkeypatch):
    # T = P J with a wrong J still projects onto horizontal vectors, so only
    # the checks that difference the pushed-down forms can see the fault
    chart_map = QuotientChart._chart_map

    def faulty(chart, U):
        p, J = chart_map(chart, U)
        if chart.spec.model == "calabi_circle":
            return p, np.array([_calabi_jacobian_without_dmu(chart, u) for u in U])
        return p, J

    for check in ("calabi-forms-closed", "calabi-beta-exactness"):
        assert _quotient_record(check).passed
    monkeypatch.setattr(QuotientChart, "_chart_map", faulty)
    for check in ("calabi-forms-closed", "calabi-beta-exactness"):
        record = _quotient_record(check)
        assert not record.passed
        assert record.measured >= 0.1
    assert _quotient_record("taubnut-forms-closed").passed
