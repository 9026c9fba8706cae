"""Taub-NUT harmonic form: pointwise identities, L^2 norm and tail decay."""

import math

import numpy as np
import pytest

from hkforms import gibbons_hawking
from hkforms.numerics import richardson_stencil
from hkforms.gibbons_hawking import (
    GHData,
    GHPoint,
    anti_self_duality_residual,
    cutoff_cross_term,
    ddtheta_residual,
    dtheta,
    l2_density,
    l2_density_from_forms,
    l2_norm,
    metric_at,
    potential,
    shell_integral,
    shell_volume,
    tail_decay,
    two_form_norm_sq,
)

D1 = GHData(m=1.0)


def random_points(seed, count, spread=3.0):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        x = rng.standard_normal(3) * spread
        if np.linalg.norm(x) > 1e-2:
            pts.append(GHPoint(x, float(rng.random())))
    return pts


def test_data_validation():
    for m in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            GHData(m=m)
    with pytest.raises(ValueError):
        GHData(m=1.0, patch="east")
    # the period is derived from the mass, never set
    with pytest.raises(TypeError):
        GHData(m=1.0, tau_period=0.0)
    with pytest.raises(AttributeError):
        D1.tau_period = 1.0
    assert D1.tau_period == 4.0 * math.pi
    assert GHData(m=0.5).tau_period == 2.0 * math.pi


def test_point_validation():
    with pytest.raises(ValueError):
        GHPoint(np.zeros(3))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            GHPoint(np.array([bad, 0.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            GHPoint(np.array([0.5, 0.0, 1.0]), bad)
    with pytest.raises(ValueError):
        metric_at(GHPoint(np.array([0.0, 0.0, -2.0])), GHData(m=1.0, patch="north"))
    with pytest.raises(ValueError):
        metric_at(GHPoint(np.array([0.0, 0.0, 2.0])), GHData(m=1.0, patch="south"))


def test_metric_south_pole_example():
    d = GHData(m=1.0, patch="south")
    g = metric_at(GHPoint(np.array([0.0, 0.0, -1.0])), d)
    assert g[3, 3] == pytest.approx(0.5)
    for i in range(3):
        assert g[i, i] == pytest.approx(2.0)
    assert np.abs(g - np.diag(np.diag(g))).max() == 0.0


def test_metric_asymptotically_flat():
    g = metric_at(GHPoint(np.array([0.0, 1e6, 0.0])), D1)
    assert np.abs(g - np.eye(4)).max() <= 2e-6


def test_metric_positive_definite_and_determinant():
    for p in random_points(21, 100):
        g = metric_at(p, D1)
        V = potential(p, D1)
        assert np.linalg.eigvalsh(g).min() > 0
        assert np.linalg.det(g) == pytest.approx(V ** 2, rel=1e-10)


def test_theta_pairs_with_tau_direction():
    # theta = V^{-1}(dtau + alpha), the metric dual of d/dtau, is the metric's last row
    for p in random_points(22, 10):
        t = metric_at(p, D1)[3]
        assert t[3] == pytest.approx(1.0 / potential(p, D1))


def test_theta_norm_is_inverse_potential():
    for p in random_points(23, 20):
        g = metric_at(p, D1)
        t = g[3]
        val = t @ np.linalg.inv(g) @ t
        assert val == pytest.approx(1.0 / potential(p, D1), rel=1e-12)


def test_theta_global_across_patches():
    north = GHData(m=1.0, patch="north")
    south = GHData(m=1.0, patch="south")
    for p in random_points(24, 10, spread=1.5):
        # convert the north-chart components to the south chart:
        # dtau_N = dtau_S + 2 m dphi, so theta_S = theta_N + theta_tau * 2m dphi
        x1, x2, _ = p.x
        rho_sq = x1 * x1 + x2 * x2
        dphi = np.array([-x2 / rho_sq, x1 / rho_sq, 0.0, 0.0])
        tn = metric_at(p, north)[3]
        ts = metric_at(p, south)[3]
        converted = tn + tn[3] * 2.0 * north.m * dphi
        assert np.abs(converted - ts).max() <= 1e-12


def test_dtheta_closed():
    worst = max(ddtheta_residual(p, D1) for p in random_points(25, 25))
    assert worst <= 1e-6


def test_dtheta_anti_self_dual():
    worst = max(anti_self_duality_residual(p, D1) for p in random_points(26, 100))
    assert worst <= 1e-8


def test_dtheta_asymptotic_magnitude():
    # |dtheta|^2 ~ 2 m^2 / r^4 for large r
    p = GHPoint(np.array([0.0, 0.0, 1.0]) * 1e3)
    val = two_form_norm_sq(dtheta(p, D1), metric_at(p, D1))
    assert val == pytest.approx(2.0 * D1.m ** 2 / p.r ** 4, rel=1e-2)


def test_density_examples():
    # at m = 1, r = 1: V = 2 and the density is 2/(1 * 8) = 1/4
    assert l2_density(GHPoint(np.array([1.0, 0.0, 0.0])), D1) == pytest.approx(0.25)
    # r -> infinity: density -> 2 m^2 / r^4
    p = GHPoint(np.array([0.0, 1e4, 0.0]))
    assert l2_density(p, D1) == pytest.approx(2.0 / p.r ** 4, rel=1e-3)
    # r -> 0: density -> 2/(m r)
    p = GHPoint(np.array([1e-8, 0.0, 0.0]))
    assert l2_density(p, D1) == pytest.approx(2.0 / (D1.m * p.r), rel=1e-7)


def test_density_two_code_paths_agree():
    for p in random_points(27, 100):
        a = l2_density(p, D1)
        b = l2_density_from_forms(p, D1)
        assert abs(a - b) <= 1e-10 * max(1.0, a)


def test_density_patch_independent():
    north = GHData(m=1.0, patch="north")
    south = GHData(m=1.0, patch="south")
    for p in random_points(28, 20):
        a = l2_density_from_forms(p, north)
        b = l2_density_from_forms(p, south)
        assert abs(a - b) <= 1e-10 * max(1.0, a)


def test_l2_norm_matches_closed_form():
    val = l2_norm(D1)
    assert abs(val - 16.0 * math.pi ** 2) / (16.0 * math.pi ** 2) <= 1e-6


def test_l2_norm_oracle_quadrature():
    # independent high-resolution oracle on the untransformed radial integrand
    from scipy.integrate import quad
    oracle, _ = quad(lambda r: 8.0 * math.pi * r / (r + 1.0) ** 3, 0.0, math.inf)
    assert l2_norm(D1) == pytest.approx(D1.tau_period * oracle, rel=1e-9)


def test_l2_norm_scaling_in_mass():
    for m in (0.5, 1.0, 2.0):
        d = GHData(m=m)
        assert l2_norm(d) / (m * d.tau_period) == pytest.approx(4.0 * math.pi, rel=1e-8)


def test_tail_decay_slope():
    shells, slope = tail_decay(D1)
    assert np.all(np.diff(shells) < 0)
    assert np.all(shells > 0)
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_shell_integral_positive():
    assert shell_integral(D1, 10.0) > 0


def test_cutoff_cross_term_decays():
    vals = [cutoff_cross_term(D1, r, seed=0) for r in (1e2, 1e3, 1e4, 1e5)]
    assert vals[0] > vals[1] > vals[2] > vals[3]
    # the estimate scales like r^{-1/2}
    assert vals[2] / vals[0] <= 0.2
    assert vals[3] / vals[2] == pytest.approx(10.0 ** -0.5, rel=1e-2)


def test_shell_volume_matches_metric_quadrature():
    # independent route: sqrt(det g) of the full GH metric, integrated along an
    # off-axis ray where the connection alpha is nonzero
    from scipy.integrate import quad
    u = np.array([0.6, 0.0, 0.8])
    for d in (GHData(m=0.5), D1, GHData(m=2.0, patch="south")):
        for r in (0.5, 10.0, 100.0):
            oracle, _ = quad(lambda s: 4.0 * math.pi * s * s
                             * math.sqrt(np.linalg.det(metric_at(GHPoint(s * u), d))),
                             r, 2.0 * r, epsabs=0.0, epsrel=1e-13)
            assert shell_volume(d, r) == pytest.approx(d.tau_period * oracle, rel=1e-12)


def test_alpha_regular_on_patch_axis():
    # alpha vanishes on the patch's regular axis: g is diag(V, V, V, 1/V) there
    north = GHData(m=1.0, patch="north")
    g = metric_at(GHPoint(np.array([0.0, 0.0, 3.0])), north)
    assert np.array_equal(g, np.diag(np.diag(g)))


def _alpha_oracle(p, d):
    """The Dirac-gauge connection's Cartesian components, as a numpy 3-vector."""
    x1, x2, x3 = p.x
    r = p.r
    rho_sq = x1 * x1 + x2 * x2
    if rho_sq <= 1e-13 * r * r:
        return np.zeros(3)
    sign = -1.0 if d.patch == "north" else 1.0
    factor = d.m * (x3 / r + sign) / rho_sq
    return factor * np.array([-x2, x1, 0.0])


def _dtheta_oracle(p, d):
    """dtheta's loop on numpy scalars, as it ran before reading Python floats."""
    V = potential(p, d)
    a = _alpha_oracle(p, d)
    gv = -d.m * p.x / p.r ** 3
    B = np.zeros((4, 4))
    for i in range(3):
        B[i, 3] = -gv[i] / V ** 2
    eps = {(0, 1): 1.0, (0, 2): -1.0, (1, 2): 1.0}
    for (i, j), k in (((0, 1), 2), ((0, 2), 1), ((1, 2), 0)):
        B[i, j] = -(gv[i] * a[j] - gv[j] * a[i]) / V ** 2 + eps[(i, j)] * gv[k] / V
    return B - B.T


def test_dtheta_is_bit_identical_to_the_numpy_scalar_loop():
    rng = np.random.default_rng(23)
    for d in (D1, GHData(m=0.7, patch="south")):
        for _ in range(50):
            p = GHPoint(rng.standard_normal(3) * 3.0, float(rng.random()))
            assert p.r == float(np.linalg.norm(p.x))
            assert np.array_equal(dtheta(p, d), _dtheta_oracle(p, d))


def _metric_oracle(p, d):
    """metric_at's numpy construction, as it ran before reading Python floats."""
    V = potential(p, d)
    a = _alpha_oracle(p, d)
    g = np.zeros((4, 4))
    g[:3, :3] = V * np.eye(3) + np.outer(a, a) / V
    g[:3, 3] = a / V
    g[3, :3] = a / V
    g[3, 3] = 1.0 / V
    return g


def test_metric_is_bit_identical_to_the_numpy_construction():
    rng = np.random.default_rng(29)
    for d in (D1, GHData(m=0.7, patch="south")):
        for _ in range(50):
            p = GHPoint(rng.standard_normal(3) * 3.0, float(rng.random()))
            assert np.array_equal(metric_at(p, d), _metric_oracle(p, d))
        # on the patch's regular axis alpha is zero
        p = GHPoint(np.array([0.0, 0.0, 2.0 if d.patch == "north" else -2.0]))
        assert np.array_equal(metric_at(p, d), _metric_oracle(p, d))


def _cutoff_oracle(d, r, seed):
    """cutoff_cross_term's loop: one point, dtheta, g and |dtheta|_g per sample."""
    rng = np.random.default_rng(seed)
    sup = 0.0
    for _ in range(64):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        s = r * (1.0 + rng.random())
        p = GHPoint(s * u)
        B, g = _dtheta_oracle(p, d), _metric_oracle(p, d)
        ginv = np.linalg.inv(g)
        norm_sq = float(0.5 * np.sum(B * (ginv @ B @ ginv)))
        sup = max(sup, (1.0 / s) * s * math.sqrt(norm_sq))  # K = c1 = 1, c0 = 0
    return sup * math.sqrt(shell_volume(d, r))


def test_cutoff_cross_term_matches_the_per_sample_loop():
    for patch in ("north", "south"):
        for m in (0.5, 1.0, 1.7):
            d = GHData(m=m, patch=patch)
            for r in (12.0, 1e2, 1e3, 1e4):
                for seed in range(5):
                    oracle = _cutoff_oracle(d, r, seed)
                    assert cutoff_cross_term(d, r, seed) == pytest.approx(oracle, rel=1e-14)


def test_cutoff_cross_term_refuses_a_nonpositive_radius():
    # the shell integral too, and NaN and inf: a NaN radius passed `r <= 0`
    # and hung the shell quadrature
    for r in (0.0, -10.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            cutoff_cross_term(D1, r, seed=0)
        with pytest.raises(ValueError):
            shell_integral(D1, r)


def test_ddtheta_residual_builds_dtheta_once_per_stencil_point(monkeypatch):
    calls = []
    kernel = gibbons_hawking._dtheta
    monkeypatch.setattr(gibbons_hawking, "_dtheta",
                        lambda *args: (calls.append(None), kernel(*args))[1])
    for p in random_points(31, 3):
        for d in (D1, GHData(m=1.7, patch="south")):
            calls.clear()
            ddtheta_residual(p, d)
            assert len(calls) == 17


def test_stacked_norm_equals_per_matrix_calls():
    points = random_points(30, 12)
    for d in (D1, GHData(m=1.7, patch="south")):
        B = np.array([dtheta(p, d) for p in points])
        g = np.array([metric_at(p, d) for p in points])
        stacked = two_form_norm_sq(B, g)
        assert stacked.shape == (len(points),)
        single = [two_form_norm_sq(b, h) for b, h in zip(B, g)]
        assert all(isinstance(v, float) for v in single)
        assert np.array_equal(stacked, single)


def test_ddtheta_residual_refuses_the_excluded_axis():
    with pytest.raises(ValueError, match="north patch"):
        ddtheta_residual(GHPoint(np.array([0.0, 0.0, -2.0]), 0.5), GHData(m=1.0, patch="north"))
    with pytest.raises(ValueError, match="south patch"):
        ddtheta_residual(GHPoint(np.array([0.0, 0.0, 2.0]), 0.5), GHData(m=1.0, patch="south"))


def test_ddtheta_residual_is_nan_when_a_later_stencil_point_is(monkeypatch):
    # one NaN coefficient of dtheta at x + h e_2 feeds only the last coefficient
    # of d(dtheta), (1, 2, 3); Python's max would return the largest finite one
    p = GHPoint(np.array([0.7, -0.3, 1.1]), 0.2)
    target = richardson_stencil(np.append(p.x, p.tau))[9, :3].tolist()
    kernel = gibbons_hawking._dtheta

    def poisoned(x, r, d):
        B = kernel(x, r, d)
        if x == target:
            B[1, 3] = math.nan
        return B

    monkeypatch.setattr(gibbons_hawking, "_dtheta", poisoned)
    assert math.isnan(ddtheta_residual(p, D1))
