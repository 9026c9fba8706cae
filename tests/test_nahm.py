"""Nahm flows: residuals, gauge covariance, the rotation contraction identity."""

import dataclasses

import numpy as np
import pytest

from hkforms import nahm, suites
from hkforms.nahm import (
    EULER_EXPONENTS,
    NahmState,
    ResidueTriple,
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
from hkforms.numerics import SU2_BASIS, grid_derivative
from hkforms.report import Records

XI = 1j * np.array([[0.3, 0.2 + 0.1j], [0.2 - 0.1j, -0.3]])
ETA = 1j * np.array([[0.1, 0.4 - 0.2j], [0.4 + 0.2j, -0.1]])
# the coefficients (x_0, x_1, x_2, x_3) of SU2_BASIS: rho_a = E_a
RHO = np.eye(4)[1:]


def _matrix(x):
    """Oracle for coefficients: x_0 i Id + sum_a x_a E_a, summed over SU2_BASIS."""
    x = np.asarray(x, dtype=float)
    return 1j * x[..., 0, None, None] * np.eye(2) \
        + np.einsum("...a,aij->...ij", x[..., 1:], np.array(SU2_BASIS))


def _random_coefficients(rng, shape):
    return rng.standard_normal(shape + (4,))


def _rk4_tangent(state, scalars, seed):
    """RK4 integration of the linearized flow from the left end: the oracle
    for the closed form of `ivp_tangent`, with the same random directions."""
    rho = _matrix(state.residues.rho)
    k = 2
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
            rj, rk = rho[j] / s, rho[k_] / s
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


# -- coefficients ------------------------------------------------------------------

def test_coefficient_conversions_round_trip():
    # to_matrix writes the entries out; the oracle sums over SU2_BASIS
    rng = np.random.default_rng(30)
    x = _random_coefficients(rng, (501,))
    assert np.abs(nahm.to_matrix(x) - _matrix(x)).max() <= 1e-15
    assert np.abs(nahm._coefficients(_matrix(x)) - x).max() <= 1e-15
    assert np.array_equal(nahm._coefficients(np.array(SU2_BASIS)), RHO)
    for bad in ([[1.0, 2.0], [0.0, 3.0]], np.eye(3), 1j * np.eye(3)):
        with pytest.raises(ValueError):
            nahm._coefficients(bad)


def test_bracket_matches_matrix_products():
    # the cross-product bracket against X Y - Y X of the oracle matrices, on
    # stacks and broadcast against a single element from either side
    rng = np.random.default_rng(31)
    X, Y = (_random_coefficients(rng, (501,)) for _ in range(2))
    m = RHO[1] + 0.3 * nahm._coefficients(XI)
    xi = nahm._coefficients(XI)
    for A, B in ((X, Y), (X, m), (m, Y), (m, xi)):
        MA, MB = _matrix(A), _matrix(B)
        ref = MA @ MB - MB @ MA
        out = nahm._bracket(A, B)
        assert out.shape == np.broadcast_shapes(A.shape, B.shape)
        assert np.abs(_matrix(out) - ref).max() <= 1e-15 * np.abs(ref).max()
        assert not out[..., 0].any()     # trace-free exactly


def test_product_matches_matmul():
    # the coefficient trace tr(X Y) and norm |X|^2 against np.matmul of the
    # oracle matrices, on stacks and broadcast against a single element
    rng = np.random.default_rng(32)
    X, Y = (_random_coefficients(rng, (501,)) for _ in range(2))
    m = RHO[1] + 0.3 * nahm._coefficients(XI)
    for A, B in ((X, Y), (X, m), (m, Y), (m, m)):
        ref = np.trace(np.matmul(_matrix(A), _matrix(B)), axis1=-2, axis2=-1)
        out = nahm._trace(A, B)
        assert out.shape == ref.shape and out.dtype == float
        assert np.abs(ref.imag).max() <= 1e-15 * np.abs(ref).max()
        assert np.abs(out - ref.real).max() <= 1e-15 * np.abs(ref).max()
    norm_sq = np.sum(np.abs(_matrix(X)) ** 2, axis=(1, 2))
    assert np.abs(-nahm._trace(X, X) - norm_sq).max() <= 1e-14 * norm_sq.max()


# -- residues -------------------------------------------------------------------

def test_standard_residues_bracket():
    res = one_pole_state(0.1, 1.0, 11).residues
    assert np.array_equal(res.rho, RHO)
    assert not res.rho.flags.writeable
    assert not any(E.flags.writeable for E in SU2_BASIS)
    rho = _matrix(res.rho)
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = rho[j] @ rho[k] - rho[k] @ rho[j]
        assert np.abs(comm + rho[i]).max() == 0


def test_standard_residues_traceless_irreducible():
    res = one_pole_state(0.1, 1.0, 11).residues
    assert not res.rho[:, 0].any()
    # irreducible for k = 2: the triple spans the trace-free anti-hermitian matrices
    assert np.linalg.matrix_rank(_matrix(res.rho).reshape(3, 4), tol=1e-10) == 3


def test_bad_residues_rejected():
    for bad in (tuple(np.eye(2, dtype=complex) for _ in range(3)),   # not anti-hermitian
                tuple(-E for E in SU2_BASIS),                       # [rho_j, rho_k] = +rho_i
                (SU2_BASIS[0] + 1j * np.eye(2),) + SU2_BASIS[1:],   # not trace-free
                SU2_BASIS[:2],                                      # two residues
                tuple(1j * np.eye(3) for _ in range(3))):           # not 2 x 2
        with pytest.raises(ValueError):
            ResidueTriple(bad)


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
    # D = i diag(1, -1) = 2 E_3
    s = np.linspace(0.2, 1.0, 501)
    D = np.broadcast_to([0.0, 0.0, 0.0, 2.0], (501, 4))
    assert np.array_equal(_matrix(D[0]), 1j * np.diag([1.0, -1.0]))
    zero = np.zeros((501, 4))
    state = NahmState(s, (zero, D, 2.0 * D, 3.0 * D))
    assert nahm_residual(state) <= 1e-10


def test_residual_detects_perturbation():
    # B_1 + 1e-3 i sigma_1 = B_1 + 2e-3 E_1
    state = one_pole_state(0.1, 1.0, 2000)
    B = list(state.B)
    B[1] = B[1] + np.array([0.0, 2e-3, 0.0, 0.0])
    perturbed = NahmState(state.s, tuple(B), state.residues)
    r = nahm_residual(perturbed)
    assert 1e-4 < r < 1e-1


def test_state_validation():
    s = np.linspace(0.1, 1.0, 101)
    good = np.zeros((101, 4))
    with pytest.raises(ValueError):
        NahmState(s, (good, good, good))                           # missing one array
    with pytest.raises(ValueError):
        NahmState(s, (good, good, good, np.zeros((101, 2, 2))))   # matrices, not coefficients
    with pytest.raises(ValueError):
        NahmState(s, (good, good, good, good.astype(complex)))    # complex coefficients
    with pytest.raises(ValueError):
        NahmState(s, (good, good, good, good[:-1]))               # off the grid
    for bad in (np.zeros((101, 2, 2)), good.astype(complex)):
        with pytest.raises(ValueError):
            TangentState(s, (good, good, good, bad))
    with pytest.raises(ValueError):
        one_pole_state(-0.1, 1.0, 100)


# -- gauge action --------------------------------------------------------------------

def test_identity_gauge_is_identity():
    state = one_pole_state(0.1, 1.0, 501)
    R = np.broadcast_to(np.eye(3), (501, 3, 3))
    out = gauge_transform(state, R, np.zeros((501, 4)))
    for a, b in zip(out.B, state.B):
        assert np.array_equal(a, b)


def test_gauge_invariance_of_residual():
    state = one_pole_state(0.1, 1.0, 2000)
    R, c = bump_gauge_path(state, XI)
    transformed = gauge_transform(state, R, c)
    assert abs(nahm_residual(transformed) - nahm_residual(state)) <= 1e-8


def test_gauge_invariance_of_traces():
    state = one_pole_state(0.1, 1.0, 801)
    R, c = bump_gauge_path(state, XI)
    transformed = gauge_transform(state, R, c)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            tr_before = np.einsum("nab,nba->n", _matrix(state.B[i]), _matrix(state.B[j]))
            tr_after = np.einsum("nab,nba->n", _matrix(transformed.B[i]),
                                 _matrix(transformed.B[j]))
            assert np.abs(tr_before - tr_after).max() <= 1e-10


def test_nonunitary_gauge_rejected():
    # the rotations of a gauge path must be orthogonal with det +1 on every node
    state = one_pole_state(0.1, 1.0, 501)
    c = np.zeros((501, 4))
    for R in (2.0 * np.eye(3), np.diag([1.0, 1.0, -1.0]), np.eye(4)):
        with pytest.raises(ValueError):
            gauge_transform(state, np.broadcast_to(R, (501,) + R.shape), c)


def test_translation_preserves_residual_exactly():
    state = one_pole_state(0.1, 1.0, 2000)
    shifted = translation_action(state, np.array([0.3, -0.5, 0.2]))
    assert abs(nahm_residual(shifted) - nahm_residual(state)) <= 1e-12


def test_translation_tangent_constant_norm():
    state = one_pole_state(0.1, 1.0, 801)
    tangent = translation_tangent(state, np.array([1.0, 2.0, -1.0]))
    norms = np.sqrt(sum(np.sum(np.abs(_matrix(a)) ** 2, axis=(1, 2)) for a in tangent.A))
    assert np.abs(norms - norms[0]).max() <= 1e-14
    assert norms[0] == pytest.approx(np.sqrt(2.0 * 6.0), rel=1e-15)   # |i x Id|^2 = 2 x^2


# -- linearized equation ---------------------------------------------------------------

def _per_component_residuals(tangent, state):
    """Both residuals with one grid_derivative call per component, the oracle
    for the stacked derivative of nahm_residual and linearized_residual."""
    h, A, B = state.h, tangent.A, state.B
    flow = linear = 0.0
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        flow = max(flow, nahm._max_norm(grid_derivative(B[i], h) + nahm._bracket(B[0], B[i])
                                        - nahm._bracket(B[j], B[k])))
        linear = max(linear, nahm._max_norm(
            grid_derivative(A[i], h) + nahm._bracket(A[0], B[i]) + nahm._bracket(B[0], A[i])
            - nahm._bracket(A[j], B[k]) - nahm._bracket(B[j], A[k])))
    return flow, linear


@pytest.mark.parametrize("nodes", [7, 11, 501, 2001])
def test_residuals_match_the_per_component_oracle_bit_for_bit(nodes):
    rng = np.random.default_rng(nodes)
    state = one_pole_state(0.1, 1.0, nodes)
    moved = gauge_transform(state, *bump_gauge_path(state, XI))
    random = NahmState(state.s, tuple(rng.standard_normal((4, nodes, 4))))
    for base in (state, moved, random):
        tangents = (translation_tangent(base, np.array([0.7, -0.3, 1.1])),
                    gauge_tangent(base, XI),
                    TangentState(base.s, tuple(rng.standard_normal((4, nodes, 4)))))
        for tangent in tangents:
            flow, linear = _per_component_residuals(tangent, base)
            assert nahm_residual(base) == flow
            assert linearized_residual(tangent, base) == linear


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
    # the rotations and g' g* against g = exp(phi xi) per node, conjugated as
    # g B g* and differentiated as g' = phi' xi g
    state = one_pole_state(0.1, 1.0, 2001)
    rng = np.random.default_rng(5)
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    t = (state.s - state.s[0]) / (state.s[-1] - state.s[0])
    phi = 0.3 * (t * (1.0 - t)) ** 3
    phi_prime = 0.9 * (t * (1.0 - t)) ** 2 * (1.0 - 2.0 * t) / (state.s[-1] - state.s[0])
    # amplitude 0.7 along the second direction, as a scaled direction; the
    # third is a pure scalar, whose rotations are the identity
    for xi in (XI, 0.5 * (M - M.conj().T) * (0.7 / 0.3), 0.4j * np.eye(2)):
        R, c = bump_gauge_path(state, xi)
        assert np.array_equal(R[0], np.eye(3)) and np.array_equal(R[-1], np.eye(3))
        assert not c[0].any()
        evals, evecs = np.linalg.eig(xi)
        g = np.array([evecs @ np.diag(np.exp(p * evals)) @ np.linalg.inv(evecs)
                      for p in phi])
        gh = np.conj(np.swapaxes(g, -1, -2))
        gpg = phi_prime[:, None, None] * (xi @ g) @ gh
        assert np.abs(_matrix(c) - gpg).max() <= 1e-15
        moved = gauge_transform(state, R, c)
        assert np.abs(_matrix(moved.B[0]) + gpg).max() <= 1e-15
        for i in (1, 2, 3):
            oracle = g @ _matrix(state.B[i]) @ gh
            assert np.abs(_matrix(moved.B[i]) - oracle).max() <= 1e-14


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
        A0 = _matrix(tangent.A[i][0])
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
        A = _matrix(tangent.A[i + 1])
        # the same initial data, up to the roundoff of the coefficient conversion
        assert np.abs(A[0] - oracle[i][0]).max() <= 1e-16
        assert np.abs(A - oracle[i]).max() <= bound
    for a in tangent.A:
        assert a.dtype == float and a.shape == (nodes, 4)
    assert not tangent.A[0].any()


def test_euler_operator_is_symmetric_and_matches_matrix_brackets():
    # M against s A_i' = [A_j, rho_k] + [rho_j, A_k] evaluated on the oracle
    # matrices of the 12 unit coefficient vectors, for the standard, the
    # negated and a random triple
    rng = np.random.default_rng(33)
    for rho in (RHO, -RHO, _random_coefficients(rng, (3,))):
        M = nahm._euler_operator(rho)
        assert np.array_equal(M, M.T)
        R = _matrix(rho)
        for col, unit in enumerate(np.eye(12).reshape(12, 3, 4)):
            A = _matrix(unit)
            image = _matrix(M[:, col].reshape(3, 4))
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                ref = A[j] @ R[k] - R[k] @ A[j] + R[j] @ A[k] - A[k] @ R[j]
                assert np.abs(image[i] - ref).max() <= 1e-15


def test_euler_exponents_are_integers():
    lam = euler_exponents(RHO)
    assert lam.dtype == float
    assert np.abs(lam - np.array(EULER_EXPONENTS)).max() <= 1e-12
    rec = Records("nahm", 1.0)
    exponents = suites._euler_record(rec, RHO)
    (record,) = rec
    assert record.passed and record.measured <= 1e-12
    assert exponents == [float(x) for x in lam]


def test_euler_exponents_record_fails_for_negated_residues():
    # -rho breaks [rho_j, rho_k] = -rho_i, so ResidueTriple would reject it
    negated = -RHO
    lam = euler_exponents(negated)
    assert np.abs(lam + np.array(EULER_EXPONENTS[::-1])).max() <= 1e-12
    rec = Records("nahm", 1.0)
    suites._euler_record(rec, negated)
    (record,) = rec
    assert not record.passed
    assert record.measured >= 0.5


def test_which_records_catch_negated_residues():
    # B_i = -rho_i / s, built directly: the flow residual is 2 rho_i / s^2,
    # at most 2 |E_i| / 0.1^2 = 141.4 on the record's grid
    state = one_pole_state(0.1, 1.0, 2000)
    negated = NahmState(state.s, (state.B[0],) + tuple(-b for b in state.B[1:]), None)
    assert nahm_residual(negated) == pytest.approx(100.0 * np.sqrt(2.0), rel=1e-3)
    # linearized-translation (bound 1e-10) is blind: scalars commute with everything
    translation = translation_tangent(negated, np.array([0.7, -0.3, 1.1]))
    assert linearized_residual(translation, negated) <= 1e-10
    # linearized-gauge (bound 1e-10) sees [F(B), X] with F(B) the flow residual
    assert linearized_residual(gauge_tangent(negated, XI), negated) > 1e-2
    # linearized-pole-shift (bound 1e-6) needs the residues: a state without
    # them is refused, and the negated pole's shift -rho_i / s^2, passed
    # explicitly, is off the linearized flow by 4 |E_i| / s^3
    with pytest.raises(ValueError):
        pole_shift_tangent(negated)
    inv2 = 1.0 / state.s ** 2
    shift = TangentState(state.s, (state.B[0],) + tuple(-inv2[:, None] * r for r in RHO))
    assert linearized_residual(shift, negated) > 1e3
    # contraction-translation-tangent (bound 1e-10) is blind: with the standard
    # residues passed explicitly (ResidueTriple refuses the negated ones) every
    # trace against a scalar tangent vanishes
    big = one_pole_state(1e-3, 1.0, 20001)
    big_negated = NahmState(big.s, (big.B[0],) + tuple(-b for b in big.B[1:]), big.residues)
    psi, psi_prime = bumped_psi(big_negated, ETA)
    report = contraction_identity(big_negated, translation_tangent(big_negated, [0.7, -0.3, 1.1]),
                                  psi, psi_prime)
    assert report.rel_err <= 1e-10
    with pytest.raises(ValueError):
        rotation_field(dataclasses.replace(big_negated, residues=None), psi, psi_prime)


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
    B0 = zero.copy()
    B0[:, 0] = y
    B = TangentState(state.s, (B0, zero, zero, zero))
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


def test_bumped_psi_refuses_a_direction_that_is_not_anti_hermitian():
    # such an eta gave a rotation field 9.5 away from anti-hermitian and a
    # contraction rel_err of 9.5e-8, inside the record's bound 1e-4
    state = one_pole_state(1e-2, 1.0, 401)
    for bad in ([[1, 2], [0, 3]], np.eye(3)):
        with pytest.raises(ValueError):
            bumped_psi(state, bad)


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


def test_boundary_epsilon_order_record_sees_a_quadratic_boundary_term(monkeypatch):
    # A_1 scaled by eps at the first node makes the pole-end boundary term
    # tr(A_1 psi) O(eps^2): the observed orders become 2, which the record must
    # refuse (|1 - order| = 1 against the bound 0.1), not only orders below 1
    def flattened(state, scalars, seed=0):
        tangent = ivp_tangent(state, scalars, seed=seed)
        A = [a.copy() for a in tangent.A]
        A[1][0] *= state.eps
        return TangentState(tangent.s, tuple(A))

    monkeypatch.setattr(suites.nahm, "ivp_tangent", flattened)
    records, details = suites.run_nahm(suites.SuiteConfig(seed=7))
    (record,) = [r for r in records if r.check == "boundary-epsilon-order"]
    assert details["record"]["epsilon_orders"] == pytest.approx([2.0, 2.0], abs=1e-9)
    assert record.measured == pytest.approx(1.0, abs=1e-9)
    assert not record.passed


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
