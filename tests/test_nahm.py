"""Nahm flows: residuals, gauge covariance, the rotation contraction identity."""

import numpy as np
import pytest

from hkforms import nahm, suites
from hkforms.nahm import (
    EULER_EXPONENTS,
    NahmState,
    TangentState,
    bump_gauge_path,
    bumped_psi,
    constant_psi,
    contraction_identity,
    euler_exponents,
    gauge_tangent,
    gauge_transform,
    ivp_tangent,
    linearized_residual,
    nahm_residual,
    one_pole_state,
    pole_shift_tangent,
    rotation_field,
    symplectic_form,
    translation_action,
    translation_tangent,
)
from hkforms.numerics import SU2_BASIS

XI = 1j * np.array([[0.3, 0.2 + 0.1j], [0.2 - 0.1j, -0.3]])
ETA = 1j * np.array([[0.1, 0.4 - 0.2j], [0.4 + 0.2j, -0.1]])


def _rk4_tangent(state, scalars, seed):
    """RK4 integration of the linearized flow from the left end: the oracle
    for the closed form of `ivp_tangent`, with the same random directions."""
    res = state.residues
    k = state.k
    rng = np.random.default_rng(seed)
    directions = []
    for _ in range(3):
        M = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        directions.append(0.5 * (M - M.conj().T))
    eps = state.eps
    A = [np.array(1j * scalars[i] * np.eye(k) + eps * directions[i], dtype=complex)
         for i in range(3)]

    def rhs(s, A3):
        out = []
        for i, j, k_ in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            rj, rk = res.rho[j] / s, res.rho[k_] / s
            out.append((A3[j] @ rk - rk @ A3[j]) + (rj @ A3[k_] - A3[k_] @ rj))
        return out

    nodes = state.s.size
    h = state.h
    result = [np.empty((nodes, k, k), dtype=complex) for _ in range(3)]
    for i in range(3):
        result[i][0] = A[i]
    for n in range(nodes - 1):
        s0 = state.s[n]
        k1 = rhs(s0, A)
        k2 = rhs(s0 + 0.5 * h, [A[i] + 0.5 * h * k1[i] for i in range(3)])
        k3 = rhs(s0 + 0.5 * h, [A[i] + 0.5 * h * k2[i] for i in range(3)])
        k4 = rhs(s0 + h, [A[i] + h * k3[i] for i in range(3)])
        A = [A[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
             for i in range(3)]
        for i in range(3):
            result[i][n + 1] = A[i]
    return result


# -- residues -------------------------------------------------------------------

def test_standard_residues_bracket():
    res = one_pole_state(0.1, 1.0, 11).residues
    assert res.rho == SU2_BASIS
    assert not any(E.flags.writeable for E in SU2_BASIS)
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = res.rho[j] @ res.rho[k] - res.rho[k] @ res.rho[j]
        assert np.abs(comm + res.rho[i]).max() == 0


def test_standard_residues_traceless_irreducible():
    res = one_pole_state(0.1, 1.0, 11).residues
    for r in res.rho:
        assert abs(np.trace(r)) == 0
    # irreducible for k = 2: the triple spans the trace-free anti-hermitian matrices
    assert np.linalg.matrix_rank(np.array([r.ravel() for r in res.rho]), tol=1e-10) == 3


def test_bad_residues_rejected():
    from hkforms.nahm import ResidueTriple
    with pytest.raises(ValueError):
        ResidueTriple(tuple(np.eye(2, dtype=complex) for _ in range(3)))


# -- states and residuals ----------------------------------------------------------

def test_one_pole_residual_meets_target():
    state = one_pole_state(0.1, 1.0, 2000)
    assert nahm_residual(state) <= 1e-8


def test_pole_ansatz_consistency():
    # s^2 times the flow residual of the rho/s part stays bounded toward the pole
    state = one_pole_state(0.05, 1.0, 4001)
    r = nahm_residual(state)
    assert r <= 1e-6   # grid-limited but small even with the stronger pole


def test_commuting_constant_state_exact():
    s = np.linspace(0.2, 1.0, 501)
    D = np.broadcast_to(1j * np.diag([1.0, -1.0]), (501, 2, 2)).copy()
    zero = np.zeros((501, 2, 2), dtype=complex)
    state = NahmState(s, (zero, D, 2.0 * D, 3.0 * D))
    assert nahm_residual(state) <= 1e-10


def test_residual_detects_perturbation():
    state = one_pole_state(0.1, 1.0, 2000)
    B = list(state.B)
    B[1] = B[1] + 1e-3 * (1j * np.array([[0.0, 1.0], [1.0, 0.0]]))
    perturbed = NahmState(state.s, tuple(B), state.residues)
    r = nahm_residual(perturbed)
    assert 1e-4 < r < 1e-1


def test_state_validation():
    s = np.linspace(0.1, 1.0, 101)
    good = np.zeros((101, 2, 2), dtype=complex)
    with pytest.raises(ValueError):
        NahmState(s, (good, good, good))            # missing one matrix
    with pytest.raises(ValueError):
        NahmState(s, (good, good, good, np.ones((101, 2, 2))))  # not anti-hermitian
    with pytest.raises(ValueError):
        one_pole_state(-0.1, 1.0, 100)


# -- gauge action --------------------------------------------------------------------

def test_identity_gauge_is_identity():
    state = one_pole_state(0.1, 1.0, 501)
    g = np.broadcast_to(np.eye(2, dtype=complex), state.B[0].shape).copy()
    out = gauge_transform(state, g, np.zeros_like(g))
    for a, b in zip(out.B, state.B):
        assert np.abs(a - b).max() <= 1e-14


def test_gauge_invariance_of_residual():
    state = one_pole_state(0.1, 1.0, 2000)
    g, g_prime = bump_gauge_path(state, XI)
    transformed = gauge_transform(state, g, g_prime)
    assert abs(nahm_residual(transformed) - nahm_residual(state)) <= 1e-8


def test_gauge_invariance_of_traces():
    state = one_pole_state(0.1, 1.0, 801)
    g, g_prime = bump_gauge_path(state, XI)
    transformed = gauge_transform(state, g, g_prime)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            tr_before = np.einsum("nab,nba->n", state.B[i], state.B[j])
            tr_after = np.einsum("nab,nba->n", transformed.B[i], transformed.B[j])
            assert np.abs(tr_before - tr_after).max() <= 1e-10


def test_nonunitary_gauge_rejected():
    state = one_pole_state(0.1, 1.0, 501)
    g = np.broadcast_to(2.0 * np.eye(2, dtype=complex), state.B[0].shape).copy()
    with pytest.raises(ValueError):
        gauge_transform(state, g, np.zeros_like(g))


def test_translation_preserves_residual_exactly():
    state = one_pole_state(0.1, 1.0, 2000)
    shifted = translation_action(state, np.array([0.3, -0.5, 0.2]))
    assert abs(nahm_residual(shifted) - nahm_residual(state)) <= 1e-12


def test_translation_tangent_constant_norm():
    state = one_pole_state(0.1, 1.0, 801)
    tangent = translation_tangent(state, np.array([1.0, 2.0, -1.0]))
    norms = np.sqrt(sum(np.sum(np.abs(a) ** 2, axis=(1, 2)) for a in tangent.A))
    assert np.abs(norms - norms[0]).max() <= 1e-14


# -- linearized equation ---------------------------------------------------------------

def test_translation_tangent_linearized():
    state = one_pole_state(0.1, 1.0, 2000)
    tangent = translation_tangent(state, np.array([0.7, -0.3, 1.1]))
    assert linearized_residual(tangent, state) <= 1e-10


def test_gauge_tangent_linearized():
    state = one_pole_state(0.05, 1.0, 4001)
    assert linearized_residual(gauge_tangent(state, XI), state) <= 1e-7


def test_gauge_tangent_is_the_gauge_path_derivative():
    # bump_gauge_path(state, -lam xi) moves the state along gauge_tangent(state, xi)
    # to first order in lam
    state = one_pole_state(0.1, 1.0, 1001)
    tangent = gauge_tangent(state, XI)
    gaps = []
    for lam in (1e-3, 5e-4):
        moved = gauge_transform(state, *bump_gauge_path(state, -lam * XI))
        gaps.append(max(np.abs((a - b) / lam - t).max()
                        for a, b, t in zip(moved.B, state.B, tangent.A)))
    assert gaps[0] <= 1e-2
    assert gaps[1] == pytest.approx(gaps[0] / 2.0, rel=1e-2)
    with pytest.raises(ValueError):
        gauge_tangent(state, np.eye(2))


def test_bump_gauge_path_matches_per_node_exponential():
    state = one_pole_state(0.1, 1.0, 2001)
    rng = np.random.default_rng(5)
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    # amplitude 0.7 along the second direction, as a scaled direction
    for xi in (XI, 0.5 * (M - M.conj().T) * (0.7 / 0.3)):
        g, g_prime = bump_gauge_path(state, xi)
        t = (state.s - state.s[0]) / (state.s[-1] - state.s[0])
        phi = 0.3 * (t * (1.0 - t)) ** 3
        evals, evecs = np.linalg.eig(xi)
        loop = np.array([evecs @ np.diag(np.exp(p * evals)) @ np.linalg.inv(evecs)
                         for p in phi])
        assert np.array_equal(g, loop)
        assert np.array_equal(g_prime[0], np.zeros((2, 2)))


def test_finite_difference_gauge_family_tangent():
    # (B(lambda) - B(0)) / lambda from the gauge orbit: residual O(lambda)
    state = one_pole_state(0.1, 1.0, 1001)
    lam = 1e-3
    # the bump path has amplitude 0.3; scale the direction to amplitude lam
    moved = gauge_transform(state, *bump_gauge_path(state, (lam / 0.3) * XI))
    fd = TangentState(state.s, tuple((a - b) / lam for a, b in zip(moved.B, state.B)))
    res = linearized_residual(fd, state)
    assert res <= 10.0 * lam


def test_linearized_record_sees_a_scaled_tangent():
    # the nahm/linearized-ivp inputs at seed 7: A_1 scaled by 1.01 is off the
    # linearized flow by 2.8e-2, against the record's bound 1e-9
    state = one_pole_state(0.1, 1.0, 2000)
    tangent = ivp_tangent(state, np.array([0.4, -0.2, 0.6]), seed=9)
    assert linearized_residual(tangent, state) <= 1e-10
    A = list(tangent.A)
    A[1] = 1.01 * A[1]
    assert linearized_residual(TangentState(state.s, tuple(A)), state) == \
        pytest.approx(2.8e-2, rel=0.05)


def test_pole_shift_tangent_linearized():
    state = one_pole_state(0.1, 1.0, 2001)
    assert linearized_residual(pole_shift_tangent(state), state) <= 1e-6


def test_ivp_tangent_linearized_and_near_scalar():
    state = one_pole_state(1e-3, 1.0, 20001)
    tangent = ivp_tangent(state, np.array([0.4, -0.2, 0.6]), seed=3)
    assert linearized_residual(tangent, state) <= 1e-4
    # A_i at the pole end is a scalar plus an O(eps) correction
    for i in (1, 2, 3):
        A0 = tangent.A[i][0]
        scalar = np.trace(A0) / 2.0
        assert np.abs(A0 - scalar * np.eye(2)).max() <= 2.0 * state.eps


@pytest.mark.parametrize("nodes,bound", [(501, 2e-6), (2001, 5e-9)])
def test_ivp_tangent_closed_form_matches_rk4(nodes, bound):
    # measured differences 1.1e-7 (501 nodes) and 3.6e-10 (2001), the RK4
    # truncation error, which falls by 4^4 as h falls by 4
    state = one_pole_state(1e-2, 1.0, nodes)
    scalars = np.array([0.4, -0.2, 0.6])
    tangent = ivp_tangent(state, scalars, seed=3)
    oracle = _rk4_tangent(state, scalars, seed=3)
    for i in range(3):
        assert np.array_equal(tangent.A[i + 1][0], oracle[i][0])
        assert np.abs(tangent.A[i + 1] - oracle[i]).max() <= bound
    for a in tangent.A:
        assert np.array_equal(a, -np.conj(np.swapaxes(a, -1, -2)))
    assert not tangent.A[0].any()


def test_bracket_matches_matrix_products():
    # the written-out 2 x 2 bracket against X Y - Y X, on stacks and broadcast
    # against a single matrix from either side
    rng = np.random.default_rng(31)
    X, Y = (rng.standard_normal((501, 2, 2)) + 1j * rng.standard_normal((501, 2, 2))
            for _ in range(2))
    M = SU2_BASIS[1] + 0.3 * XI
    for A, B in ((X, Y), (X, M), (M, Y), (M, XI)):
        ref = A @ B - B @ A
        out = nahm._comm(A, B)
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.array_equal(out[..., 0, 0], -out[..., 1, 1])     # trace-free exactly
    with pytest.raises(ValueError):
        nahm._comm(np.eye(3), np.eye(3))


def test_product_matches_matmul():
    # the written-out 2 x 2 product against np.matmul, on stacks and broadcast
    # against a single matrix from either side
    rng = np.random.default_rng(32)
    X, Y = (rng.standard_normal((501, 2, 2)) + 1j * rng.standard_normal((501, 2, 2))
            for _ in range(2))
    M = SU2_BASIS[1] + 0.3 * XI
    for A, B in ((X, Y), (X, M), (M, Y), (M, XI), (X.real, Y)):
        ref = np.matmul(A, B)
        out = nahm._mul(A, B)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()
    with pytest.raises(ValueError):
        nahm._mul(np.eye(3), np.eye(3))
    with pytest.raises(ValueError):
        nahm._mul(X, np.eye(3))


def test_euler_exponents_are_integers():
    lam = euler_exponents(SU2_BASIS)
    assert np.abs(lam - np.array(EULER_EXPONENTS)).max() <= 1e-12
    record, exponents = suites._euler_record(SU2_BASIS, 1.0)
    assert record.passed and record.measured <= 1e-12
    assert exponents == [float(x.real) for x in lam]


def test_euler_exponents_record_fails_for_negated_residues():
    # -rho breaks [rho_j, rho_k] = -rho_i, so ResidueTriple would reject it
    negated = tuple(-r for r in SU2_BASIS)
    lam = euler_exponents(negated)
    assert np.abs(lam + np.array(EULER_EXPONENTS[::-1])).max() <= 1e-12
    record, _ = suites._euler_record(negated, 1.0)
    assert not record.passed
    assert record.measured >= 0.5


def test_zero_tangent():
    state = one_pole_state(0.1, 1.0, 801)
    zero = TangentState(state.s, tuple(np.zeros_like(state.B[0]) for _ in range(4)))
    assert linearized_residual(zero, state) == 0.0


# -- symplectic pairing ------------------------------------------------------------------

def test_symplectic_antisymmetry():
    state = one_pole_state(0.1, 1.0, 1001)
    a = ivp_tangent(state, np.array([0.1, 0.2, 0.3]), seed=1)
    b = ivp_tangent(state, np.array([-0.4, 0.5, 0.1]), seed=2)
    assert symplectic_form(a, a) == 0.0
    assert abs(symplectic_form(a, b) + symplectic_form(b, a)) <= 1e-12


def test_symplectic_constant_case_closed_form():
    # A = (0, ix Id, 0, 0), B = (iy Id, 0, 0, 0): omega = -2xy * interval length
    eps = 1e-3
    state = one_pole_state(eps, 1.0, 20001)
    x, y = 1.7, 2.3
    A = translation_tangent(state, np.array([x, 0.0, 0.0]))
    zero = np.zeros_like(state.B[0])
    B = TangentState(state.s, (np.broadcast_to(1j * y * np.eye(2), zero.shape).copy(),
                               zero, zero, zero))
    assert symplectic_form(A, B) == pytest.approx(-2.0 * x * y * (1.0 - eps), rel=1e-12)


# -- rotation field and the contraction identity --------------------------------------------

def test_rotation_field_constant_psi_vanishes_on_one_pole():
    # the one-pole solution is rotation-invariant: X = 0 identically
    state = one_pole_state(0.1, 1.0, 801)
    psi = constant_psi(state)
    X = rotation_field(state, psi, np.zeros_like(psi))
    assert max(np.abs(a).max() for a in X.A) <= 1e-12


def test_rotation_field_is_linearized_solution():
    state = one_pole_state(0.05, 1.0, 4001)
    psi, psi_prime = bumped_psi(state, ETA)
    X = rotation_field(state, psi, psi_prime)
    assert linearized_residual(X, state) <= 1e-6


def test_rotation_field_requires_endpoint_values():
    state = one_pole_state(0.1, 1.0, 801)
    bad = np.zeros_like(state.B[0])
    with pytest.raises(ValueError):
        rotation_field(state, bad, np.zeros_like(bad))


def test_contraction_translation_tangent_exact():
    state = one_pole_state(1e-3, 1.0, 20001)
    psi, psi_prime = bumped_psi(state, ETA)
    tangent = translation_tangent(state, np.array([0.7, -0.3, 1.1]))
    report = contraction_identity(state, tangent, psi, psi_prime)
    assert report.rhs == 0.0
    assert abs(report.lhs + report.boundary) <= 1e-10 * max(report.scale, 1.0)
    assert report.rel_err <= 1e-10


def test_contraction_pole_shift_closed_forms():
    # rhs = int 1/s^3 on [0.1, 1] = 49.5 and the boundary term cancels it
    state = one_pole_state(0.1, 1.0, 2001)
    psi = constant_psi(state)
    report = contraction_identity(state, pole_shift_tangent(state), psi, np.zeros_like(psi))
    assert report.rhs == pytest.approx(49.5, rel=1e-9)
    assert report.boundary == pytest.approx(-49.5, rel=1e-9)
    assert abs(report.lhs) <= 1e-10
    assert report.rel_err <= 1e-8


def test_contraction_gauge_tangent():
    state = one_pole_state(1e-3, 1.0, 20001)
    tangent = gauge_tangent(state, XI)
    psi, psi_prime = bumped_psi(state, ETA)
    report = contraction_identity(state, tangent, psi, psi_prime)
    assert report.scale > 1e-4         # nonzero integrands
    assert report.rel_err <= 1e-10


def test_contraction_ivp_tangent_at_small_eps():
    state = one_pole_state(1e-3, 1.0, 20001)
    tangent = ivp_tangent(state, np.array([0.4, -0.2, 0.6]), seed=3)
    psi, psi_prime = bumped_psi(state, ETA)
    report = contraction_identity(state, tangent, psi, psi_prime)
    assert abs(report.rhs) > 0.1       # genuinely nonzero cancellation
    assert report.rel_err <= 1e-4


def test_contraction_identity_across_psi_choices():
    # the identity holds for every admissible compensator, not just one
    state = one_pole_state(1e-2, 1.0, 4001)
    tangent = ivp_tangent(state, np.array([0.4, -0.2, 0.6]), seed=3)
    etas = [ETA, 1j * np.array([[0.5, 0.0], [0.0, -0.5]]),
            1j * np.array([[0.0, 1.0j], [-1.0j, 0.0]])]
    for k, eta in enumerate(etas):
        # amplitude 0.2 + 0.3 k on the bump of amplitude 0.5
        psi, psi_prime = bumped_psi(state, eta * ((0.2 + 0.3 * k) / 0.5))
        report = contraction_identity(state, tangent, psi, psi_prime)
        assert report.rel_err <= 1e-6


def test_contraction_boundary_epsilon_order():
    # pole-end boundary term of an admissible tangent decays linearly in eps
    values = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        state = one_pole_state(eps, 1.0, 8001)
        tangent = ivp_tangent(state, np.array([0.4, -0.2, 0.6]), seed=3)
        psi, psi_prime = bumped_psi(state, ETA)
        report = contraction_identity(state, tangent, psi, psi_prime)
        values.append(abs(report.boundary_left))
        assert report.rel_err <= 1e-4
    orders = np.log2(np.array(values[:-1]) / np.array(values[1:]))
    assert np.all(orders >= 0.9)
    assert values[0] > values[1] > values[2]


def test_contraction_h_order():
    errs = []
    for nodes in (501, 1001, 2001):
        state = one_pole_state(1e-2, 1.0, nodes)
        tangent = ivp_tangent(state, np.array([0.4, -0.2, 0.6]), seed=3)
        psi, psi_prime = bumped_psi(state, ETA)
        errs.append(contraction_identity(state, tangent, psi, psi_prime).rel_err)
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert errs[0] > errs[1] > errs[2]
    assert np.all(orders >= 2.0)
