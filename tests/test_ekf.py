import numpy as np
import pytest

from immwind import (
    ControlInput,
    EstimatorState,
    GridCpSurface,
    ModeBank,
    NoiseModel,
    NumericalError,
    TurbineModel,
    predict,
    update,
)

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
        # F = diag(3, 2), P = diag(2, 5), Q = I -> P' = diag(3*2*3 + 1, 2*5*2 + 1) = diag(19, 21)
        model = LinearModel(np.diag([3.0, 2.0]), [[1.0, 0.0]])
        noise = NoiseModel(Q=np.eye(2), R=[[1.0]])
        out = predict(EstimatorState([1.0, -4.0], np.diag([2.0, 5.0])), None, model, noise)
        np.testing.assert_array_equal(out.P, np.diag([19.0, 21.0]))
        np.testing.assert_array_equal(out.x, [3.0, -8.0])

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
        model = LinearModel(np.eye(2), [[1.0, 0.0]])
        state = EstimatorState([1.0, 2.0], np.diag([0.0, 1.0]))
        noise = NoiseModel.__new__(NoiseModel)  # bypass R > 0 validation
        object.__setattr__(noise, "Q", np.zeros((2, 2)))
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


class TestValidation:
    def test_covariance_shape_mismatch(self):
        with pytest.raises(ValueError, match="covariance shape"):
            EstimatorState([1.0, 2.0], np.eye(3))

    def test_records_take_two_states_and_one_channel_only(self):
        """Every other shape is rejected where the record is built, naming the shape."""
        with pytest.raises(ValueError, match=r"state shape \(3,\) is not \(2,\)"):
            EstimatorState([1.0, 2.0, 3.0], np.eye(3))
        with pytest.raises(ValueError, match=r"state shape \(1, 2\) is not \(2,\)"):
            EstimatorState([[1.0, 2.0]], np.eye(2))
        with pytest.raises(ValueError, match=r"covariance shape \(1, 1\) is not \(2, 2\)"):
            EstimatorState([1.0, 2.0], [[1.0]])
        with pytest.raises(ValueError, match=r"Q shape \(1, 1\) is not \(2, 2\)"):
            NoiseModel(Q=[[1.0]], R=[[1.0]])
        with pytest.raises(ValueError, match=r"R shape \(2, 2\) is not \(1, 1\)"):
            NoiseModel(Q=np.eye(2), R=np.eye(2))
        with pytest.raises(ValueError, match=r"stacked x \(2, 3\) and P \(2, 3, 3\) must be "
                                             r"\(2, 2\) and \(2, 2, 2\)"):
            ModeBank(models=(LinearModel(np.eye(3), [[1.0, 0.0, 0.0]]),) * 2,
                     x=np.zeros((2, 3)), P=np.stack([np.eye(3)] * 2), mu=[0.5, 0.5],
                     transition=np.eye(2), noise=NoiseModel(Q=np.eye(2), R=[[1.0]]))

    def test_q_must_be_psd(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            NoiseModel(Q=[[-1.0, 0.0], [0.0, 1.0]], R=[[1.0]])

    def test_q_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            NoiseModel(Q=[[1.0, 0.5], [0.0, 1.0]], R=[[1.0]])

    def test_q_and_r_are_read_only_copies_next_to_their_cached_floats(self):
        """The filters read Q's and R's cached floats, so the arrays cannot be written."""
        Q, R = np.diag([1e-8, 0.01]), np.array([[0.25]])
        noise = NoiseModel(Q=Q, R=R)
        assert noise.q_entries == (1e-8, 0.0, 0.0, 0.01)
        assert noise.r == noise.R.item() == 0.25
        with pytest.raises(ValueError, match="read-only"):
            noise.Q[1, 1] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            noise.R[0, 0] = -1.0
        assert noise.q_entries == (1e-8, 0.0, 0.0, 0.01)
        assert noise.r == 0.25
        Q[1, 1] = 5.0  # the caller's arrays stay its own and writable
        assert noise.Q[1, 1] == 0.01

    def test_r_must_be_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            NoiseModel(Q=np.eye(2), R=[[0.0]])
