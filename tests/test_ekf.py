import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immwind import (
    ControlInput,
    EstimatorState,
    GridCpSurface,
    NoiseModel,
    NumericalError,
    TurbineModel,
    predict,
    update,
)
from immwind.ekf import correct, propagate

from conftest import LinearModel, random_psd


def eig_min_2x2(P):
    tr = P[0, 0] + P[1, 1]
    disc = np.sqrt(max((P[0, 0] - P[1, 1]) ** 2 + 4.0 * P[0, 1] ** 2, 0.0))
    return 0.5 * (tr - disc)


class TestPredict:
    def test_identity_transition_keeps_covariance(self):
        model = LinearModel(np.eye(2), [[1.0, 0.0]])
        noise = NoiseModel(Q=np.zeros((2, 2)), R=[[1.0]])
        state = EstimatorState([1.0, 2.0], [[2.0, 0.3], [0.3, 1.0]])
        out = predict(state, None, model, noise)
        np.testing.assert_array_equal(out.P, state.P)
        np.testing.assert_array_equal(out.x, state.x)

    def test_scalar_hand_arithmetic(self):
        # P=2, F=3, Q=1 -> P' = 3*2*3 + 1 = 19
        model = LinearModel([[3.0]], [[1.0]])
        noise = NoiseModel(Q=[[1.0]], R=[[1.0]])
        out = predict(EstimatorState([1.0], [[2.0]]), None, model, noise)
        assert out.P[0, 0] == pytest.approx(19.0, abs=1e-15)
        assert out.x[0] == pytest.approx(3.0, abs=1e-15)

    def test_wind_variance_grows_by_q22_without_coupling(self, params):
        # zero Cp surface decouples the wind from the rotor: F = I
        model = TurbineModel(params, GridCpSurface.constant(0.0))
        noise = NoiseModel(Q=np.diag([1e-8, 0.01]), R=[[1e-6]])
        state = EstimatorState([0.9, 8.0], np.diag([1e-4, 0.25]))
        out = predict(state, ControlInput(0.0, 0.0), model, noise)
        assert out.P[1, 1] == pytest.approx(0.25 + 0.01, abs=1e-15)


class TestUpdate:
    def test_zero_residual_keeps_estimate(self):
        model = LinearModel(np.eye(2), [[1.0, 0.0]])
        noise = NoiseModel(Q=np.zeros((2, 2)), R=[[0.5]])
        state = EstimatorState([0.9, 8.0], np.diag([0.01, 1.0]))
        out, rep = update(state, 0.9, None, model, noise)
        assert rep.residual[0] == 0.0
        np.testing.assert_array_equal(out.x, state.x)

    def test_uninformative_measurement_limit(self):
        state = EstimatorState([0.9, 8.0], np.diag([0.01, 1.0]))
        model = LinearModel(np.eye(2), [[1.0, 0.0]])
        noise = NoiseModel(Q=np.zeros((2, 2)), R=[[1e12 * state.P[0, 0]]])
        out, rep = update(state, 1.5, None, model, noise)
        np.testing.assert_allclose(out.x, state.x, rtol=1e-6)
        np.testing.assert_allclose(out.P, state.P, rtol=1e-10)

    def test_report_fields(self):
        model = LinearModel(np.eye(2), [[1.0, 0.0]])
        noise = NoiseModel(Q=np.zeros((2, 2)), R=[[0.5]])
        state = EstimatorState([1.0, 8.0], np.diag([0.5, 1.0]))
        out, rep = update(state, 1.2, None, model, noise)
        assert rep.residual[0] == pytest.approx(0.2)
        assert rep.innovation_cov[0, 0] == pytest.approx(1.0)  # 0.5 + 0.5
        assert out.x[0] == pytest.approx(1.0 + 0.5 * 0.2)  # gain 0.5 / 1.0

    def test_singular_innovation_raises_with_value(self):
        model = LinearModel(np.eye(1), [[1.0]])
        state = EstimatorState([1.0], [[0.0]])
        noise = NoiseModel.__new__(NoiseModel)  # bypass R > 0 validation
        object.__setattr__(noise, "Q", np.zeros((1, 1)))
        object.__setattr__(noise, "R", np.zeros((1, 1)))
        with pytest.raises(NumericalError, match="S=0.0"):
            update(state, 1.0, None, model, noise)

    def test_trace_never_grows_for_speed_measurement(self):
        rng = np.random.default_rng(8)
        model = LinearModel(np.eye(2), [[1.0, 0.0]])
        for _ in range(200):
            P = random_psd(rng, 2)
            state = EstimatorState(rng.normal(size=2), P)
            noise = NoiseModel(Q=np.zeros((2, 2)), R=[[rng.uniform(0.01, 10.0)]])
            out, _ = update(state, rng.normal(), None, model, noise)
            assert np.trace(out.P) <= np.trace(state.P) + 1e-12


class TestLinearEquivalence:
    def test_matches_textbook_kalman_filter(self):
        """EKF on a constant-Jacobian model == hand-coded linear KF."""
        F = np.array([[1.0, 0.05], [0.0, 1.0]])
        H = np.array([[1.0, 0.0]])
        Q = np.diag([1e-4, 1e-2])
        R = np.array([[0.04]])
        model = LinearModel(F, H)
        noise = NoiseModel(Q=Q, R=R)
        rng = np.random.default_rng(9)
        ys = rng.normal(0.0, 1.0, size=50)

        state = EstimatorState([0.5, -0.2], np.diag([1.0, 4.0]))
        x_ref = state.x.copy()
        P_ref = state.P.copy()
        for y in ys:
            state = predict(state, None, model, noise)
            state, _ = update(state, y, None, model, noise)

            # straight-line textbook filter
            x_ref = F @ x_ref
            P_ref = F @ P_ref @ F.T + Q
            P_ref = 0.5 * (P_ref + P_ref.T)
            S = H @ P_ref @ H.T + R
            K = P_ref @ H.T @ np.linalg.inv(S)
            x_ref = x_ref + (K @ (np.atleast_1d(y) - H @ x_ref))
            P_ref = (np.eye(2) - K @ H) @ P_ref
            P_ref = 0.5 * (P_ref + P_ref.T)

        np.testing.assert_allclose(state.x, x_ref, rtol=1e-10)
        np.testing.assert_allclose(state.P, P_ref, rtol=1e-10)


class TestCovarianceHealth:
    def test_symmetric_psd_over_many_random_cycles(self):
        """P stays symmetric PSD over 1e5 random predict/update cycles."""
        rng = np.random.default_rng(10)
        H = np.array([[1.0, 0.0]])
        state = EstimatorState([0.0, 0.0], np.eye(2))
        n_cycles = 100_000
        # re-randomize model and noise periodically; checking every cycle
        for k in range(n_cycles):
            if k % 1000 == 0:
                F = np.eye(2) + 0.1 * rng.normal(size=(2, 2))
                F /= max(1.0, np.abs(np.linalg.eigvals(F)).max())  # keep it stable
                model = LinearModel(F, H)
                noise = NoiseModel(Q=random_psd(rng, 2, 0.1), R=[[rng.uniform(0.01, 1.0)]])
            state = predict(state, None, model, noise)
            state, _ = update(state, rng.normal(), None, model, noise)
            P = state.P
            assert P[0, 1] == P[1, 0]
            assert eig_min_2x2(P) >= -1e-10 * max(np.trace(P), 1e-300)


class TestMultiOutput:
    def test_two_channel_update_matches_direct_formula(self):
        H = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = LinearModel(np.eye(2), H)
        R = np.diag([0.5, 2.0])
        noise = NoiseModel(Q=np.zeros((2, 2)), R=R)
        P = np.array([[1.0, 0.2], [0.2, 2.0]])
        state = EstimatorState([1.0, -1.0], P)
        y = np.array([1.3, -0.4])
        out, rep = update(state, y, None, model, noise)
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        x_ref = state.x + K @ (y - H @ state.x)
        P_ref = (np.eye(2) - K @ H) @ P
        np.testing.assert_allclose(out.x, x_ref, rtol=1e-12)
        np.testing.assert_allclose(out.P, 0.5 * (P_ref + P_ref.T), rtol=1e-12)
        np.testing.assert_allclose(rep.innovation_cov, S, rtol=1e-12)

    def test_two_channel_singular_innovation(self):
        H = np.array([[1.0, 0.0], [1.0, 0.0]])  # duplicated row
        model = LinearModel(np.eye(2), H)
        noise = NoiseModel.__new__(NoiseModel)
        object.__setattr__(noise, "Q", np.zeros((2, 2)))
        object.__setattr__(noise, "R", np.zeros((2, 2)))
        state = EstimatorState([1.0, 2.0], np.eye(2))
        with pytest.raises(NumericalError, match="not positive definite"):
            update(state, np.array([1.0, 1.0]), None, model, noise)


class TestBatchedKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 4),
        n=st.integers(1, 3),
        p=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_batched_call_equals_single_filter_calls(self, m, n, p, seed):
        """A stack of m filters through the kernel == m predict/update calls, bit for bit."""
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(m, n, n))
        H = rng.normal(size=(m, p, n))
        x = rng.normal(size=(m, n))
        P = np.stack([random_psd(rng, n) for _ in range(m)])
        noise = NoiseModel(Q=random_psd(rng, n, 0.1), R=random_psd(rng, p) + np.eye(p))
        y = rng.normal(size=p)

        models = [LinearModel(F[j], H[j]) for j in range(m)]
        xp = np.array([model.f(xj, None) for model, xj in zip(models, x)])
        Pp = propagate(F, P, noise.Q)
        z = y - np.array([model.h(xj, None) for model, xj in zip(models, xp)])
        xu, Pu, S = correct(xp, Pp, z, H, noise.R)
        for j, model in enumerate(models):
            pred = predict(EstimatorState(x[j], P[j]), None, model, noise)
            post, rep = update(pred, y, None, model, noise)
            np.testing.assert_array_equal(Pp[j], pred.P)
            np.testing.assert_array_equal(xu[j], post.x)
            np.testing.assert_array_equal(Pu[j], post.P)
            np.testing.assert_array_equal(S[j], rep.innovation_cov)

    def test_batched_scalar_failure_names_the_bad_value(self):
        P = np.stack([np.eye(1), np.zeros((1, 1)), np.eye(1)])
        H = np.ones((3, 1, 1))
        with pytest.raises(NumericalError, match="S=0.0"):
            correct(np.zeros((3, 1)), P, np.zeros((3, 1)), H, np.zeros((1, 1)))


class TestValidation:
    def test_covariance_shape_mismatch(self):
        with pytest.raises(ValueError, match="covariance shape"):
            EstimatorState([1.0, 2.0], np.eye(3))

    def test_q_must_be_psd(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            NoiseModel(Q=[[-1.0, 0.0], [0.0, 1.0]], R=[[1.0]])

    def test_q_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            NoiseModel(Q=[[1.0, 0.5], [0.0, 1.0]], R=[[1.0]])

    def test_r_must_be_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            NoiseModel(Q=np.eye(2), R=[[0.0]])
