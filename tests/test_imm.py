import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from immwind import (
    AnalyticCpSurface,
    ControlInput,
    EstimatorState,
    GridCpSurface,
    ModeBank,
    NoiseModel,
    NumericalError,
    TurbineModel,
    build_cp_mode_bank,
    combine,
    default_grid_surface,
    estimate_cp,
    imm_step,
    likelihood,
    mix,
    mixing_weights,
    predict,
    predict_mode_probs,
    symmetric_transition,
    update,
    update_mode_probs,
)
from immwind.imm import MU_FLOOR

from conftest import LinearModel, random_psd

PAPER_PI = np.array(
    [[0.99, 0.005, 0.005], [0.005, 0.99, 0.005], [0.005, 0.005, 0.99]]
)


def linear_bank(m=3, mu=None, pi=None, seed=0):
    rng = np.random.default_rng(seed)
    F = np.array([[1.0, 0.05], [0.0, 1.0]])
    H = np.array([[1.0, 0.0]])
    models = tuple(LinearModel(F, H) for _ in range(m))
    noise = NoiseModel(Q=np.diag([1e-4, 1e-2]), R=[[0.04]])
    states = tuple(
        EstimatorState(rng.normal(size=2), np.diag([1.0, 2.0])) for _ in range(m)
    )
    mu = np.full(m, 1.0 / m) if mu is None else np.asarray(mu, dtype=float)
    pi = symmetric_transition(m, 0.95) if pi is None else np.asarray(pi, dtype=float)
    return ModeBank(models=models, states=states, mu=mu, transition=pi, noise=noise)


class TestLikelihood:
    def test_standard_normal_peak(self):
        assert likelihood(0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_standard_normal_at_one(self):
        expected = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert likelihood(1.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert likelihood(1.0, 1.0) == pytest.approx(0.241971, abs=1e-6)

    def test_variance_scaling(self):
        assert likelihood(0.0, 4.0) == pytest.approx(1.0 / math.sqrt(8 * math.pi), rel=1e-12)

    def test_huge_residual_underflows_to_zero(self):
        assert likelihood(1e200, 1.0) == 0.0

    def test_nonpositive_innovation_covariance(self):
        with pytest.raises(NumericalError):
            likelihood(0.0, 0.0)


class TestModeProbUpdate:
    def test_bayes_arithmetic(self):
        mu = update_mode_probs(np.full(3, 1 / 3), np.array([2.0, 1.0, 1.0]))
        np.testing.assert_allclose(mu, [0.5, 0.25, 0.25], rtol=1e-12)

    def test_equal_likelihoods_change_nothing(self):
        prior = np.array([0.2, 0.5, 0.3])
        mu = update_mode_probs(prior, np.array([0.7, 0.7, 0.7]))
        np.testing.assert_allclose(mu, prior, rtol=1e-12)

    def test_flooring_keeps_dead_modes_alive(self):
        mu = update_mode_probs(np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0]))
        assert mu[0] >= 1.0 - 3e-12
        # floored entries renormalize to just under the raw floor
        assert np.all(mu[1:] >= 0.9e-12)
        assert mu.sum() == pytest.approx(1.0, abs=1e-15)

    def test_total_underflow_returns_prior(self):
        prior = np.array([0.2, 0.5, 0.3])
        mu = update_mode_probs(prior, np.zeros(3))
        np.testing.assert_array_equal(mu, prior)


class TestCombine:
    def test_degenerate_weights_select_one_filter(self):
        states = [
            EstimatorState([1.0, 2.0], np.diag([1.0, 1.0])),
            EstimatorState([5.0, -1.0], np.diag([4.0, 2.0])),
            EstimatorState([0.0, 0.0], np.diag([9.0, 9.0])),
        ]
        x, P = combine(states, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(x, states[0].x)
        np.testing.assert_array_equal(P, states[0].P)

    def test_identical_states_have_no_spread_term(self):
        s = EstimatorState([1.0, 2.0], [[2.0, 0.1], [0.1, 0.5]])
        mu = np.array([0.6, 0.3, 0.1])
        x, P = combine([s, s, s], mu)
        np.testing.assert_allclose(x, s.x, rtol=1e-15)
        np.testing.assert_allclose(P, s.P, rtol=1e-12)

    def test_scalar_hand_arithmetic(self):
        states = [EstimatorState([1.0, 4.0], np.zeros((2, 2))),
                  EstimatorState([3.0, 0.0], np.zeros((2, 2)))]
        x, P = combine(states, np.array([0.5, 0.5]))
        np.testing.assert_array_equal(x, [2.0, 2.0])
        # spread (+-1, -+2) about the mean: outer products [[1, -2], [-2, 4]]
        np.testing.assert_array_equal(P, [[1.0, -2.0], [-2.0, 4.0]])


class TestMarkovStages:
    def test_identity_chain_keeps_probabilities(self):
        mu = np.array([0.5, 0.2, 0.3])
        np.testing.assert_array_equal(predict_mode_probs(np.eye(3), mu), mu)

    def test_reference_transition_from_pure_mode(self):
        mu = predict_mode_probs(PAPER_PI, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(mu, [0.99, 0.005, 0.005], rtol=1e-12)

    def test_stochasticity_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pi = rng.uniform(0.0, 1.0, size=(3, 3))
            pi /= pi.sum(axis=1, keepdims=True)
            mu = rng.uniform(0.0, 1.0, size=3)
            mu /= mu.sum()
            assert predict_mode_probs(pi, mu).sum() == pytest.approx(1.0, abs=1e-12)

    def test_mixing_weights_identity_chain(self):
        mu = np.array([0.5, 0.2, 0.3])
        w = mixing_weights(np.eye(3), mu, predict_mode_probs(np.eye(3), mu))
        np.testing.assert_allclose(w, np.eye(3), rtol=0, atol=1e-15)

    def test_mixing_weights_uniform_mu_gives_column_normalized_pi(self):
        mu = np.full(3, 1 / 3)
        pi = symmetric_transition(3, 0.9)
        w = mixing_weights(pi, mu, predict_mode_probs(pi, mu))
        np.testing.assert_allclose(w, pi / pi.sum(axis=0, keepdims=True), rtol=1e-12)

    def test_mixing_weights_hand_evaluated_column(self):
        mu = np.array([0.8, 0.1, 0.1])
        mu_next = predict_mode_probs(PAPER_PI, mu)
        w = mixing_weights(PAPER_PI, mu, mu_next)
        # column 1 is proportional to (0.99*0.8, 0.005*0.1, 0.005*0.1)
        expected = np.array([0.792, 0.0005, 0.0005])
        expected /= expected.sum()
        np.testing.assert_allclose(w[:, 0], expected, rtol=1e-12)
        np.testing.assert_allclose(w[:, 0], [0.99874, 0.00063, 0.00063], atol=5e-6)
        np.testing.assert_allclose(w.sum(axis=0), np.ones(3), rtol=1e-12)

    def test_mixing_weights_zero_denominator(self):
        pi = np.array([[1.0, 0.0], [1.0, 0.0]])  # second column never reachable
        mu = np.array([0.5, 0.5])
        with pytest.raises(NumericalError, match="zero"):
            mixing_weights(pi, mu, predict_mode_probs(pi, mu))


class TestMix:
    def test_identity_weights_change_nothing(self):
        states = [
            EstimatorState([1.0, 2.0], np.diag([1.0, 2.0])),
            EstimatorState([3.0, 4.0], np.diag([3.0, 4.0])),
        ]
        mixed = mix(states, np.eye(2))
        for before, after in zip(states, mixed):
            np.testing.assert_array_equal(after.x, before.x)
            np.testing.assert_array_equal(after.P, before.P)

    def test_identical_filters_unchanged(self):
        s = EstimatorState([1.0, 2.0], [[2.0, 0.1], [0.1, 0.5]])
        w = np.array([[0.7, 0.3], [0.3, 0.7]])
        for m in mix([s, s], w):
            np.testing.assert_allclose(m.x, s.x, rtol=1e-15)
            np.testing.assert_allclose(m.P, s.P, rtol=1e-12)

    def test_scalar_hand_arithmetic(self):
        states = [EstimatorState([0.0, 5.0], np.eye(2)), EstimatorState([2.0, 5.0], np.eye(2))]
        w = np.array([[0.5, 0.5], [0.5, 0.5]])
        mixed = mix(states, w)
        for m in mixed:
            np.testing.assert_array_equal(m.x, [1.0, 5.0])
            np.testing.assert_array_equal(m.P, np.diag([2.0, 1.0]))  # 1 + spread 1; no spread

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(2, 4),
        dominant=st.integers(0, 3),
        stay=st.sampled_from([0.5, 0.999, 1.0 - 1e-12, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_extreme_weights_keep_simplex_and_psd(self, m, dominant, stay, seed):
        """One mode at 1 - (m-1) MU_FLOOR beside MU_FLOOR-sized ones."""
        rng = np.random.default_rng(seed)
        mu = np.full(m, MU_FLOOR)
        mu[dominant % m] = 1.0 - (m - 1) * MU_FLOOR
        states = [
            EstimatorState(
                rng.normal(scale=10.0, size=2),
                random_psd(rng, 2, scale=10.0 ** rng.uniform(-6.0, 3.0)),
            )
            for _ in range(m)
        ]
        pi = symmetric_transition(m, stay)
        w = mixing_weights(pi, mu, predict_mode_probs(pi, mu))
        np.testing.assert_allclose(w.sum(axis=0), np.ones(m), rtol=0, atol=1e-12)
        outputs = [(s.x, s.P) for s in mix(states, w)] + [combine(states, mu)]
        for x, P in outputs:
            assert np.all(np.isfinite(x))
            np.testing.assert_array_equal(P, P.T)
            assert np.linalg.eigvalsh(P).min() >= -1e-10 * np.trace(P)


class TestImmStep:
    def test_single_mode_collapses_to_plain_ekf(self, params, grid_surface):
        model = TurbineModel(params, grid_surface)
        noise = NoiseModel(Q=np.diag([1e-8, 1e-2]), R=[[1e-8]])
        x0 = np.array([0.72, 8.0])
        P0 = np.diag([0.01, 4.0])
        bank = ModeBank(
            models=(model,),
            states=(EstimatorState(x0, P0),),
            mu=np.array([1.0]),
            transition=np.array([[1.0]]),
            noise=noise,
        )
        state = EstimatorState(x0, P0)
        u = ControlInput(0.0, 5e6)
        for k in range(40):
            y = 0.72 + 1e-3 * math.sin(0.3 * k)
            bank, out = imm_step(bank, y, u)
            state = predict(state, u, model, noise)
            state, _ = update(state, y, u, model, noise)
            np.testing.assert_array_equal(out.x, state.x)
            np.testing.assert_array_equal(out.P, state.P)

    def test_identical_modes_stay_uniform_and_match_single_filter(self, params, grid_surface):
        model = TurbineModel(params, grid_surface)
        noise = NoiseModel(Q=np.diag([1e-8, 1e-2]), R=[[1e-8]])
        x0 = np.array([0.72, 8.0])
        P0 = np.diag([0.01, 4.0])
        bank = ModeBank(
            models=(model,) * 3,
            states=(EstimatorState(x0, P0),) * 3,
            mu=np.full(3, 1 / 3),
            transition=PAPER_PI,
            noise=noise,
        )
        state = EstimatorState(x0, P0)
        u = ControlInput(0.0, 5e6)
        rng = np.random.default_rng(12)
        for _ in range(50):
            y = 0.72 + 1e-3 * rng.normal()
            bank, out = imm_step(bank, y, u)
            state = predict(state, u, model, noise)
            state, _ = update(state, y, u, model, noise)
            np.testing.assert_allclose(out.mu, np.full(3, 1 / 3), atol=1e-12)
            np.testing.assert_allclose(out.x, state.x, rtol=1e-10)
            np.testing.assert_allclose(out.P, state.P, rtol=1e-10)

    def test_identity_chain_with_pure_mode_tracks_filter_one(self, params, grid_surface):
        from immwind import aero_torque

        noise = NoiseModel(Q=np.diag([1e-8, 1e-2]), R=[[1e-8]])
        x0 = np.array([0.72, 8.0])
        P0 = np.diag([0.01, 4.0])
        bank = build_cp_mode_bank(
            params, grid_surface, 0.04, noise, x0, P0, np.eye(3), np.array([1.0, 0.0, 0.0])
        )
        model_one = bank.models[0]
        state = EstimatorState(x0, P0)
        # consistent operating point so off-mode filters stay bounded
        u = ControlInput(0.0, aero_torque(0.72, 8.0, 0.0, params, grid_surface))
        rng = np.random.default_rng(13)
        for _ in range(50):
            y = 0.72 + 1e-4 * rng.normal()
            bank, out = imm_step(bank, y, u)
            state = predict(state, u, model_one, noise)
            state, _ = update(state, y, u, model_one, noise)
            np.testing.assert_allclose(out.x, state.x, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(out.P, state.P, rtol=1e-10, atol=1e-14)

    def test_total_underflow_counted_and_probs_kept(self):
        bank = linear_bank()
        mu_before = bank.mu.copy()
        # an absurd measurement sends every residual off the Gaussian cliff
        new_bank, out = imm_step(bank, 1e9, None)
        assert new_bank.underflow_count == 1
        np.testing.assert_array_equal(out.mu, mu_before)

    def test_failed_step_leaves_caller_bank_usable(self, params, grid_surface):
        noise = NoiseModel(Q=np.diag([1e-8, 1e-2]), R=[[1e-8]])
        bank = build_cp_mode_bank(
            params, grid_surface, 0.04, noise,
            np.array([0.72, 8.0]), np.diag([0.01, 4.0]),
            PAPER_PI, np.full(3, 1 / 3),
        )
        with pytest.raises((NumericalError, ValueError, TypeError)):
            imm_step(bank, float("nan"), ControlInput(float("nan"), float("nan")))
        # the original value is untouched and still steps fine
        bank2, out = imm_step(bank, 0.72, ControlInput(0.0, 5e6))
        assert np.isfinite(out.x).all()


class TestEstimateCp:
    def make_bank(self, params, grid_surface, mu):
        noise = NoiseModel(Q=np.diag([1e-8, 1e-2]), R=[[1e-8]])
        return build_cp_mode_bank(
            params, grid_surface, 0.04, noise,
            np.array([0.72, 8.0]), np.diag([0.01, 4.0]),
            PAPER_PI, np.asarray(mu),
        )

    def test_degenerate_weights_select_mode_surface(self, params, grid_surface):
        x = np.array([0.72, 8.0])
        lam = 0.72 * params.radius / 8.0
        bank = self.make_bank(params, grid_surface, [1.0, 0.0, 0.0])
        assert estimate_cp(bank, x, 0.0) == pytest.approx(
            grid_surface.evaluate(lam, 0.0), rel=1e-12
        )
        bank = self.make_bank(params, grid_surface, [0.0, 1.0, 0.0])
        assert estimate_cp(bank, x, 0.0) == pytest.approx(
            grid_surface.evaluate(lam, 0.0) + 0.04, rel=1e-12
        )

    def test_uniform_weights_cancel_offsets(self, params, grid_surface):
        x = np.array([0.72, 8.0])
        lam = 0.72 * params.radius / 8.0
        bank = self.make_bank(params, grid_surface, [1 / 3, 1 / 3, 1 / 3])
        assert estimate_cp(bank, x, 0.0) == pytest.approx(
            grid_surface.evaluate(lam, 0.0), abs=1e-12
        )

    def test_one_shared_lookup_equals_the_per_mode_sum(self, params, grid_surface):
        """Offsets large enough to engage the value clamp at both ends."""
        bank = build_cp_mode_bank(
            params, grid_surface, 0.45, NoiseModel(Q=np.diag([1e-8, 1e-2]), R=[[1e-8]]),
            np.array([0.72, 8.0]), np.diag([0.01, 4.0]), PAPER_PI, [0.2, 0.5, 0.3],
        )
        assert bank._cp_base is not None
        for x in ([0.72, 8.0], [0.01, 30.0], [2.0, 0.1]):
            want = 0.0
            for w, model in zip(bank.mu, bank.models):
                want += float(w) * model.cp_at(np.array(x), 0.05)
            assert estimate_cp(bank, np.array(x), 0.05) == want

    def test_models_on_different_surfaces_look_up_each(self, params, grid_surface):
        surfaces = (grid_surface, grid_surface, GridCpSurface.constant(0.3))
        bank = ModeBank(
            models=[TurbineModel(params, s, d) for s, d in zip(surfaces, (0.0, 0.04, 0.0))],
            states=(EstimatorState([0.72, 8.0], np.eye(2)),) * 3,
            mu=[0.2, 0.5, 0.3], transition=PAPER_PI,
            noise=NoiseModel(Q=np.eye(2), R=[[1.0]]),
        )
        assert bank._cp_base is None
        x = np.array([0.72, 8.0])
        lam = 0.72 * params.radius / 8.0
        want = 0.2 * grid_surface.evaluate(lam, 0.0) + 0.5 * (grid_surface.evaluate(lam, 0.0) + 0.04)
        assert estimate_cp(bank, x, 0.0) == pytest.approx(want + 0.3 * 0.3, rel=1e-12)

    def test_models_without_surface_give_nan(self):
        bank = linear_bank()
        assert math.isnan(estimate_cp(bank, np.array([1.0, 8.0]), 0.0))

    def test_bank_shares_one_lookup_only_across_one_surface(self, params, grid_surface):
        """Modes share a pitch lookup when their params and surfaces are equal: an
        analytic surface by value, a grid only as the same object."""
        def shared(*models):
            return ModeBank(
                models=models, states=(EstimatorState([0.72, 8.0], np.eye(2)),) * len(models),
                mu=np.full(len(models), 1 / len(models)),
                transition=symmetric_transition(len(models), 0.9),
                noise=NoiseModel(Q=np.eye(2), R=[[1.0]]),
            )._cp_base

        copy = GridCpSurface(grid_surface.lam_axis, grid_surface.theta_axis, grid_surface.values)
        model, offsets = shared(TurbineModel(params, grid_surface),
                                TurbineModel(params, grid_surface, 0.04))
        assert model.cp is grid_surface and offsets == (0.0, 0.04)
        assert shared(TurbineModel(params, AnalyticCpSurface()),
                      TurbineModel(params, AnalyticCpSurface(), -0.04))[1] == (0.0, -0.04)
        assert shared(TurbineModel(params, grid_surface), TurbineModel(params, copy)) is None
        assert shared(TurbineModel(params, grid_surface),
                      TurbineModel(params, AnalyticCpSurface())) is None
        assert shared(TurbineModel(params, AnalyticCpSurface()),
                      TurbineModel(params, AnalyticCpSurface(lam_bounds=(1.0, 20.0)))) is None
        assert shared(TurbineModel(params, grid_surface),
                      TurbineModel(dataclasses.replace(params, radius=80.0), grid_surface)) is None


class TestBankValidation:
    def test_mu_off_simplex(self):
        with pytest.raises(ValueError, match="simplex"):
            linear_bank(mu=[0.5, 0.2, 0.2])

    @pytest.mark.parametrize("field", ["x", "P", "mu", "transition"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, field, bad):
        bank = linear_bank()
        fields = dict(x=bank.x.copy(), P=bank.P.copy(), mu=bank.mu.copy(),
                      transition=bank.transition.copy())
        fields[field].reshape(-1)[1] = bad
        with pytest.raises(ValueError, match=rf"^ModeBank\.{field} must be finite"):
            ModeBank(models=bank.models, noise=bank.noise, **fields)

    def test_transition_rows_must_sum_to_one(self):
        pi = np.array([[0.9, 0.2, 0.0], [0.1, 0.8, 0.1], [0.0, 0.1, 0.9]])
        with pytest.raises(ValueError, match="row"):
            linear_bank(pi=pi)

    def test_symmetric_transition_builder(self):
        pi = symmetric_transition(3, 0.99)
        np.testing.assert_allclose(pi, PAPER_PI, rtol=1e-12)
        np.testing.assert_array_equal(symmetric_transition(1, 0.7), [[1.0]])
        with pytest.raises(ValueError):
            symmetric_transition(3, 0.0)

    def test_build_cp_mode_bank_offsets(self, params, grid_surface):
        noise = NoiseModel(Q=np.diag([1e-8, 1e-2]), R=[[1e-8]])
        bank = build_cp_mode_bank(
            params, grid_surface, 0.05, noise,
            np.array([0.72, 8.0]), np.diag([0.01, 4.0]),
            PAPER_PI, np.full(3, 1 / 3),
        )
        assert [m.offset for m in bank.models] == [0.0, 0.05, -0.05]
        assert all(m.cp is grid_surface for m in bank.models)
        x = np.array([5.0 * 8.0 / params.radius, 8.0])  # lambda = 5
        base = grid_surface.evaluate(5.0, 0.0)
        assert bank.models[1].cp_at(x, 0.0) == pytest.approx(base + 0.05, rel=1e-12)
        assert bank.models[2].cp_at(x, 0.0) == pytest.approx(base - 0.05, rel=1e-12)


class TestBankValue:
    def test_imm_step_leaves_the_input_bank_unchanged(self):
        bank = linear_bank(seed=4)
        x, P, mu = bank.x.copy(), bank.P.copy(), bank.mu.copy()
        new_bank, _ = imm_step(bank, 0.7, None)
        np.testing.assert_array_equal(bank.x, x)
        np.testing.assert_array_equal(bank.P, P)
        np.testing.assert_array_equal(bank.mu, mu)
        assert not np.array_equal(new_bank.x, x)

    def test_states_give_back_the_constructor_states(self):
        rng = np.random.default_rng(5)
        states = tuple(
            EstimatorState(rng.normal(size=2), np.diag(rng.uniform(0.1, 2.0, 2)))
            for _ in range(3)
        )
        bank = ModeBank(
            models=(LinearModel(np.eye(2), [[1.0, 0.0]]),) * 3,
            states=states,
            mu=np.full(3, 1 / 3),
            transition=PAPER_PI,
            noise=NoiseModel(Q=np.eye(2), R=[[1.0]]),
        )
        assert bank.x.shape == (3, 2) and bank.P.shape == (3, 2, 2)
        assert len(bank.states) == 3
        for got, want in zip(bank.states, states):
            np.testing.assert_array_equal(got.x, want.x)
            np.testing.assert_array_equal(got.P, want.P)

    def test_attribute_assignment_raises(self):
        bank = linear_bank()
        for name in ("x", "P", "mu", "underflow_count"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(bank, name, None)

    def test_replace_builds_a_validated_bank(self):
        bank, _ = imm_step(linear_bank(seed=6), 1e9, None)  # one underflow counted
        new = dataclasses.replace(bank, mu=[0.2, 0.3, 0.5])
        np.testing.assert_array_equal(new.mu, [0.2, 0.3, 0.5])
        for name in ("x", "P", "transition"):
            np.testing.assert_array_equal(getattr(new, name), getattr(bank, name))
        assert new.models == bank.models and new.underflow_count == 1
        with pytest.raises(ValueError, match="simplex"):
            dataclasses.replace(bank, mu=[0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="must be"):
            dataclasses.replace(bank, P=bank.P[:, :1])

    def test_states_or_stacked_arrays_not_both(self):
        bank = linear_bank()
        rest = dict(mu=bank.mu, transition=bank.transition, noise=bank.noise)
        with pytest.raises(TypeError, match="not both"):
            ModeBank(models=bank.models, states=bank.states, x=bank.x, P=bank.P, **rest)
        with pytest.raises(TypeError, match="needs per-filter states"):
            ModeBank(models=bank.models, x=bank.x, **rest)
        with pytest.raises(TypeError, match="needs mu"):
            ModeBank(models=bank.models, states=bank.states, mu=bank.mu, noise=bank.noise)
        positional = ModeBank(bank.models, bank.states, bank.mu, bank.transition, bank.noise)
        np.testing.assert_array_equal(positional.P, bank.P)

    def test_validated_once_per_caller_built_bank(self, monkeypatch):
        calls = []
        validate = ModeBank.__post_init__

        def counted(self):
            calls.append(self)
            validate(self)

        monkeypatch.setattr(ModeBank, "__post_init__", counted)
        bank = linear_bank()
        assert len(calls) == 1
        for k in range(20):
            bank, _ = imm_step(bank, 0.1 * k, None)
        assert len(calls) == 1


class TestSimplexInvariants:
    def test_probabilities_stay_on_simplex_under_stress(self):
        rng = np.random.default_rng(14)
        bank = linear_bank(seed=3)
        for k in range(2000):
            y = rng.normal(scale=10.0 if k % 97 == 0 else 1.0)
            bank, out = imm_step(bank, y, None)
            assert abs(out.mu.sum() - 1.0) <= 1e-12
            assert np.all(out.mu >= 0.0)
            assert abs(bank.mu.sum() - 1.0) <= 1e-12


def bank_with_one_negative_definite_filter(m, bad, seed):
    """m random linear filters; filter ``bad`` has a negative-definite P."""
    rng = np.random.default_rng(seed)
    models = tuple(LinearModel(rng.normal(size=(2, 2)), rng.normal(size=(1, 2))) for _ in range(m))
    states = [EstimatorState(rng.normal(size=2), random_psd(rng, 2)) for _ in range(m)]
    states[bad] = EstimatorState(rng.normal(size=2), -1e3 * (random_psd(rng, 2) + np.eye(2)))
    bank = ModeBank(
        models=models,
        states=states,
        mu=np.full(m, 1.0 / m),
        transition=symmetric_transition(m, 0.95),
        noise=NoiseModel(Q=random_psd(rng, 2, 0.1), R=[[rng.uniform(1.0, 3.0)]]),
    )
    return bank, rng.normal()


class TestNonPositiveInnovation:
    """Every stage that meets an innovation covariance S that is not positive raises."""

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 4), bad=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_imm_step_raises_and_leaves_bank_unchanged(self, m, bad, seed):
        j = bad % m
        bank, y = bank_with_one_negative_definite_filter(m, j, seed)
        F, H = bank.models[j].F, bank.models[j].H
        S = (H @ (F @ bank.P[j] @ F.T + bank.noise.Q) @ H.T + bank.noise.R).item()
        assume(S < 0.0)
        before = {name: getattr(bank, name).copy() for name in ("x", "P", "mu")}
        with pytest.raises(NumericalError, match=rf"^mode {j}: innovation covariance S=.* is "
                                                 r"not positive$"):
            imm_step(bank, y, None)
        for name, value in before.items():
            np.testing.assert_array_equal(getattr(bank, name), value)
        assert bank.underflow_count == 0

    @settings(max_examples=200, deadline=None)
    @given(
        s=st.floats(-10.0, 0.0) | st.just(math.nan),
        z=st.floats(-10.0, 10.0),
        shape=st.sampled_from([(), (1,), (1, 1)]),
    )
    @example(s=-0.0, z=0.0, shape=())
    def test_likelihood_raises(self, s, z, shape):
        """S at or below zero, or NaN, given as a float or a size-1 array."""
        with pytest.raises(NumericalError, match="not positive"):
            likelihood(np.full(shape, z), np.full(shape, s))
