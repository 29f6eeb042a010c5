"""The float kernel that ``imm_step``, ``predict`` and ``update`` run.

The reference is ``straight_line_cycle`` below, an IMM cycle written as
plain numpy loops from the models' ``f``/``jac_f``/``h``/``jac_h``
alone.  The two evaluate the same formulas in a different order, so
they agree to rounding: states and covariances normwise to RTOL of
their scale, and mode probabilities to MU_ATOL.  A combined or mixed
covariance holds spread terms d d' of states of size |x|, whose
rounding is of order eps |x|^2, so covariances are compared at the
scale max(|P|, |x|^2).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from immwind import (
    ControlInput,
    EstimatorState,
    ImmOutput,
    ModeBank,
    NoiseModel,
    NumericalError,
    TurbineModel,
    UpdateReport,
    build_cp_mode_bank,
    combine,
    imm_step,
    mix,
    predict,
    symmetric_transition,
    update,
)
from immwind import ekf, imm
from immwind.imm import MU_FLOOR

from conftest import LinearModel, random_psd

RTOL = 1e-9  # normwise, relative to the scale of the reference
MU_ATOL = 1e-9  # z^2 / S amplifies last-bit differences in S


def close(got, want, scale=0.0):
    """Normwise agreement to RTOL of max(|want|, scale)."""
    want = np.asarray(want)
    scale = max(float(np.abs(want).max()), scale, 1e-300)
    assert float(np.abs(np.asarray(got) - want).max()) <= RTOL * scale


def straight_line_cycle(bank, states, mu, y, u):
    """One IMM cycle of ``bank``'s models, noise and transition matrix from
    the per-mode ``states`` (x, P) and the prior ``mu``, as plain numpy: a
    textbook EKF per mode, the floored Bayes update (the prior carried over
    when every likelihood underflows), combination, Markov prediction, then
    mixing.

    Returns the output (x, P, mu_post, cp), the mixed states, the next
    prior and whether every likelihood underflowed.  cp is the
    posterior-weighted ``cp_at`` of turbine modes, else NaN.
    """
    models, Q, R, pi = bank.models, bank.noise.Q, bank.noise.R, bank.transition
    m = len(models)
    posts, lam = [], np.empty(m)
    for j, (model, (x, P)) in enumerate(zip(models, states)):
        F = np.asarray(model.jac_f(x, u), dtype=float)
        xp = np.asarray(model.f(x, u), dtype=float).reshape(2)
        Pp = F @ P @ F.T + Q
        Pp = 0.5 * (Pp + Pp.T)
        H = np.asarray(model.jac_h(xp, u), dtype=float).reshape(1, 2)
        z = y - np.asarray(model.h(xp, u), dtype=float).reshape(1)
        S = H @ Pp @ H.T + R
        K = Pp @ H.T @ np.linalg.inv(S)
        Pn = (np.eye(2) - K @ H) @ Pp
        posts.append((xp + K @ z, 0.5 * (Pn + Pn.T)))
        z, s = float(z[0]), float(S[0, 0])
        lam[j] = math.exp(-0.5 * z * z / s) / math.sqrt(2.0 * math.pi * s)
    weighted = mu * lam
    underflow = not weighted.sum() > 0.0
    if underflow:
        post = mu.copy()
    else:
        post = np.maximum(weighted / weighted.sum(), MU_FLOOR)
        post = post / post.sum()
    xc = sum(post[j] * posts[j][0] for j in range(m))
    Pc = sum(post[j] * (posts[j][1] + np.outer(posts[j][0] - xc, posts[j][0] - xc))
             for j in range(m))
    if all(isinstance(model, TurbineModel) for model in models):
        cp = sum(post[j] * models[j].cp_at(xc, u.pitch) for j in range(m))
    else:
        cp = math.nan
    prior = pi.T @ post
    mixed = []
    for j in range(m):
        w = [pi[i, j] * post[i] / prior[j] for i in range(m)]
        xm = sum(w[i] * posts[i][0] for i in range(m))
        Pm = sum(w[i] * (posts[i][1] + np.outer(xm - posts[i][0], xm - posts[i][0]))
                 for i in range(m))
        mixed.append((xm, 0.5 * (Pm + Pm.T)))
    return (xc, 0.5 * (Pc + Pc.T), post, cp), mixed, prior, underflow


def check_against_straight_line(bank, ys, us):
    """``imm_step`` and ``straight_line_cycle`` side by side over ``ys`` and
    ``us``, each carrying its own filters: every cycle's output and next bank
    agree.  Returns the last bank."""
    fixed = bank
    states, mu, underflows = list(zip(bank.x, bank.P)), bank.mu, 0
    for y, u in zip(ys, us):
        x_scale = max(abs(y), max(float(np.abs(x).max()) for x, _ in states))
        bank, out = imm_step(bank, y, u)
        (xc, Pc, post, cp), states, mu, underflow = straight_line_cycle(fixed, states, mu, y, u)
        underflows += underflow
        x_scale = max(x_scale, max(float(np.abs(x).max()) for x, _ in states))
        close(out.x, xc, x_scale)
        close(out.P, Pc, x_scale**2)
        close(bank.x, [x for x, _ in states], x_scale)
        close(bank.P, [P for _, P in states], x_scale**2)
        np.testing.assert_allclose(out.mu, post, rtol=0, atol=MU_ATOL)
        np.testing.assert_allclose(bank.mu, mu, rtol=0, atol=MU_ATOL)
        assert bank.underflow_count == underflows
        assert out.mu.min() >= MU_FLOOR * (1 - 1e-9) or bank.underflow_count
        if not math.isnan(cp):
            close(out.cp_estimate, cp)
    return bank


def random_bank(seed, m, singular, mu_at_floor):
    """m random 2-state filters measuring one general channel."""
    rng = np.random.default_rng(seed)
    models = tuple(
        LinearModel(np.eye(2) + 0.3 * rng.normal(size=(2, 2)), rng.normal(size=(1, 2)))
        for _ in range(m)
    )
    P = np.stack([random_psd(rng, 2) for _ in range(m)])
    if singular:  # rank one up to 1e-12 of its trace
        v = rng.normal(size=2)
        P[0] = np.outer(v, v) + 1e-12 * (v @ v) * np.eye(2)
    mu = rng.uniform(0.05, 1.0, m)
    if mu_at_floor and m > 1:
        mu = np.full(m, MU_FLOOR)
        mu[0] = 1.0 - (m - 1) * MU_FLOOR
    return ModeBank(
        models=models,
        x=rng.normal(size=(m, 2)),
        P=P,
        mu=mu / mu.sum(),
        transition=symmetric_transition(m, rng.uniform(0.5, 1.0)),
        noise=NoiseModel(Q=random_psd(rng, 2, 0.1), R=[[rng.uniform(0.01, 2.0)]]),
    )


class TestFloatKernelMatchesStraightLine:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 4),
        singular=st.booleans(),
        mu_at_floor=st.booleans(),
        y_scale=st.sampled_from([1.0, 30.0, 1e9]),
    )
    @example(seed=1, m=3, singular=False, mu_at_floor=False, y_scale=1e9)  # all underflow
    @example(seed=2, m=3, singular=True, mu_at_floor=True, y_scale=1.0)
    def test_cycles_agree(self, seed, m, singular, mu_at_floor, y_scale):
        rng = np.random.default_rng(seed + 1)
        # one cycle for the all-underflow shock: after it the filters sit at
        # 1e9 with covariances so ill-conditioned that rounding dominates
        ys = (y_scale * rng.normal(size=1 if y_scale == 1e9 else 4)).tolist()
        bank = check_against_straight_line(
            random_bank(seed, m, singular, mu_at_floor), ys, [None] * len(ys)
        )
        if y_scale == 1e9:
            assert bank.underflow_count == 1

    def test_measurement_as_float_or_size_one_array(self):
        bank = random_bank(3, 3, False, False)
        for y in (0.4, np.array([0.4]), np.array([[0.4]])):
            _, out = imm_step(bank, y, None)
            np.testing.assert_array_equal(out.x, imm_step(bank, 0.4, None)[1].x)
        with pytest.raises(ValueError, match="one measurement"):
            imm_step(bank, np.array([0.4, 0.5]), None)


class TestTurbineFilter:
    def test_predict_and_update_match_the_numpy_formulas(self, params, grid_surface):
        """predict/update on a turbine model equal the textbook matrix cycle to rounding."""
        bank = build_cp_mode_bank(
            params, grid_surface, 0.04, NoiseModel(Q=np.diag([1e-8, 1e-2]), R=[[1e-6]]),
            np.array([0.72, 8.0]), np.diag([0.01, 4.0]), np.eye(3), np.array([1.0, 0.0, 0.0]),
        )
        model, noise = bank.models[0], bank.noise
        state = EstimatorState(bank.x[0], bank.P[0])
        u = ControlInput(0.02, 5e6)
        for k in range(30):
            y = 0.72 + 1e-3 * math.sin(0.4 * k)
            x, P = state.x, state.P
            state = predict(state, u, model, noise)
            F = model.jac_f(x, u)
            close(state.x, model.f(x, u))
            close(state.P, 0.5 * (F @ P @ F.T + noise.Q + (F @ P @ F.T + noise.Q).T))
            x, P = state.x, state.P
            state, report = update(state, y, u, model, noise)
            S = P[0, 0] + noise.R[0, 0]
            L = P[:, :1] / S
            close(report.innovation_cov, [[S]])
            close(state.x, x + L[:, 0] * (y - x[0]))
            P = (np.eye(2) - L @ [[1.0, 0.0]]) @ P
            close(state.P, 0.5 * (P + P.T))


class TestFailureNamesTheMode:
    def bank(self, params, grid_surface, P):
        noise = NoiseModel(Q=np.diag([1e-8, 1e-2]), R=[[1e-8]])
        bank = build_cp_mode_bank(
            params, grid_surface, 0.04, noise, np.array([0.72, 8.0]), np.diag([0.01, 4.0]),
            symmetric_transition(3, 0.99), np.full(3, 1 / 3),
        )
        return ModeBank(models=bank.models, x=bank.x, P=P, mu=bank.mu,
                        transition=bank.transition, noise=noise)

    def test_innovation_covariance_not_positive(self, params, grid_surface):
        P = np.stack([np.diag([0.01, 4.0])] * 3)
        P[2] = -P[2]
        bank = self.bank(params, grid_surface, P)
        with pytest.raises(NumericalError, match=r"^mode 2 \(Cp offset -0\.04\): innovation "
                                                 r"covariance S=-[0-9.e-]+ is not positive$"):
            imm_step(bank, 0.72, ControlInput(0.0, 5e6))

    def test_overflow_in_the_correction_raises_at_its_step(self):
        """A finite covariance whose corrected wind variance overflows to -inf."""
        model = LinearModel(np.eye(2), [[1.0, 0.0]])
        P = np.stack([np.eye(2), [[1.0, 1e200], [1e200, 1e300]]])
        bank = ModeBank(models=(model, model), x=np.zeros((2, 2)), P=P, mu=[0.5, 0.5],
                        transition=np.eye(2), noise=NoiseModel(Q=np.eye(2), R=[[1.0]]))
        with pytest.raises(NumericalError, match=r"^mode 1: state or covariance is not finite "
                                                 r"after the correction: x=\(.*\), P=\(.*-inf"):
            imm_step(bank, 0.5, None)

    def test_nan_measurement_raises(self, params, grid_surface):
        bank = self.bank(params, grid_surface, np.stack([np.diag([0.01, 4.0])] * 3))
        with pytest.raises(NumericalError, match=r"^mode 0 \(Cp offset \+0\): state or covariance"):
            imm_step(bank, math.nan, ControlInput(0.0, 5e6))
        with pytest.raises(NumericalError, match="not finite"):
            update(EstimatorState(bank.x[0], bank.P[0]), math.nan, None, bank.models[0], bank.noise)
        generic = LinearModel(np.eye(2), [[1.0, 0.0]])  # the general steps check alike
        with pytest.raises(NumericalError, match="not finite"):
            update(EstimatorState(bank.x[0], bank.P[0]), math.nan, None, generic, bank.noise)

    def test_generic_bank_names_the_index(self):
        bank = random_bank(5, 3, False, False)
        P = bank.P.copy()
        P[1] = -1e6 * np.eye(2)
        bank = ModeBank(models=bank.models, x=bank.x, P=P, mu=bank.mu,
                        transition=bank.transition, noise=bank.noise)
        with pytest.raises(NumericalError, match=r"^mode 1: innovation covariance"):
            imm_step(bank, 0.1, None)


def turbine_bank(params, grid_surface):
    return build_cp_mode_bank(
        params, grid_surface, 0.04, NoiseModel(Q=np.diag([1e-8, 1e-2]), R=[[1e-8]]),
        np.array([0.72, 8.0]), np.diag([0.01, 4.0]), symmetric_transition(3, 0.99),
        np.full(3, 1 / 3),
    )


def read_every_array(*records):
    """Read each array field of the records, as a caller inspecting them would."""
    for record in records:
        for name in ("x", "P", "mu", "residual", "innovation_cov"):
            getattr(record, name, None)
        if isinstance(record, ModeBank):
            record.states


class TestFloatBackedRecords:
    def test_arrays_read_on_demand_equal_the_kernel_floats(self, params, grid_surface):
        bank, out = imm_step(turbine_bank(params, grid_surface), 0.7201, ControlInput(0.0, 5e6))
        filters, mu = bank._floats
        assert bank.x.tolist() == [[x0, x1] for x0, x1, _ in filters]
        assert bank.P.tolist() == [[list(P[:2]), list(P[2:])] for _, _, P in filters]
        assert bank.mu.tolist() == list(mu)
        x0, x1, P, post = out._floats
        assert out.x.tolist() == [x0, x1] and out.mu.tolist() == list(post)
        assert out.P.tolist() == [list(P[:2]), list(P[2:])]
        state = predict(EstimatorState(np.array([0.72, 8.0]), np.eye(2)), ControlInput(0.0, 5e6),
                        bank.models[0], bank.noise)
        state, report = update(state, 0.7201, ControlInput(0.0, 5e6), bank.models[0], bank.noise)
        x0, x1, P = state._floats
        assert state.x.tolist() == [x0, x1] and state.P.ravel().tolist() == list(P)
        z, S = report._floats
        assert report.residual.tolist() == [z] and report.innovation_cov.tolist() == [[S]]
        for array in (bank.x, bank.P, bank.mu, out.x, out.P, out.mu, state.x, report.residual):
            assert not array.flags.writeable

    def test_reading_the_arrays_changes_no_later_cycle(self, params, grid_surface):
        """Two chains, one whose records are read every cycle, agree bit for bit."""
        bank0 = turbine_bank(params, grid_surface)
        model, noise = bank0.models[0], bank0.noise
        chains = []
        for read in (False, True):
            bank, state = bank0, EstimatorState(np.array([0.72, 8.0]), np.diag([0.01, 4.0]))
            outs = []
            for k in range(40):
                u = ControlInput(0.01 * math.sin(k), 5e6)
                y = 0.72 + 1e-3 * math.sin(0.4 * k)
                bank, out = imm_step(bank, y, u)
                state, report = update(predict(state, u, model, noise), y, u, model, noise)
                if read:
                    read_every_array(bank, out, state, report)
                    assert bank.x.tolist() == [[x0, x1] for x0, x1, _ in bank._floats[0]]
                    assert out.x.tolist() == list(out._floats[:2])
                outs.append(out)
            chains.append((bank, state, outs))
        (bank_a, state_a, outs_a), (bank_b, state_b, outs_b) = chains
        assert repr(bank_a._floats) == repr(bank_b._floats)
        assert repr(state_a._floats) == repr(state_b._floats)
        assert [repr(o._floats) for o in outs_a] == [repr(o._floats) for o in outs_b]
        assert bank_a.underflow_count == bank_b.underflow_count

    def test_replace_on_a_kernel_made_bank(self, params, grid_surface):
        bank, _ = imm_step(turbine_bank(params, grid_surface), 0.7201, ControlInput(0.0, 5e6))
        copy = dataclasses.replace(bank)
        assert repr(copy._floats) == repr(bank._floats)
        for name in ("x", "P", "mu", "transition"):
            np.testing.assert_array_equal(getattr(copy, name), getattr(bank, name))
        assert copy.models == bank.models and copy.underflow_count == bank.underflow_count
        u = ControlInput(0.0, 5e6)
        (next_a, out_a), (next_b, out_b) = imm_step(bank, 0.72, u), imm_step(copy, 0.72, u)
        assert repr(next_a._floats) == repr(next_b._floats)
        assert repr(out_a._floats) == repr(out_b._floats)
        moved = dataclasses.replace(bank, mu=[0.2, 0.3, 0.5])
        np.testing.assert_array_equal(moved.mu, [0.2, 0.3, 0.5])

    def test_constructed_records_are_values_apart_from_the_caller_arrays(
        self, params, grid_surface
    ):
        """A record built by its constructor holds the floats of the arrays it was
        given: writing into those arrays later changes neither the record nor what
        ``imm_step`` or ``predict``/``update`` compute from it, and the record's own
        arrays are read-only."""
        models = [TurbineModel(params, grid_surface, d) for d in (0.0, 0.04, -0.04)]
        noise = NoiseModel(Q=np.diag([1e-8, 1e-2]), R=[[1e-8]])
        x, P, mu = np.array([0.72, 8.0]), np.diag([0.01, 4.0]), np.full(3, 1 / 3)
        pi = symmetric_transition(3, 0.99)
        xs, Ps, states = np.tile(x, (3, 1)), np.stack([P] * 3), [EstimatorState(x, P)] * 3
        residual, S = np.array([0.1]), np.array([[2.0]])
        state = EstimatorState(x, P)
        records = (
            state,
            UpdateReport(residual, S),
            ImmOutput(x, P, mu, 0.4),
            ModeBank(models, states, mu, pi, noise),
            ModeBank(models, x=xs, P=Ps, mu=mu, transition=pi, noise=noise),
        )
        u = ControlInput(0.0, 5e6)

        def computed():
            model = models[0]
            return (
                [repr(record._floats) for record in records],
                repr(update(predict(state, u, model, noise), 0.7201, u, model, noise)[0]._floats),
                [repr(imm_cycle(bank, 0.7201, u)) for bank in records[3:]],
            )

        before = computed()
        for array in (x, P, mu, pi, xs, Ps, residual, S):
            array[...] = 30.0
        assert computed() == before
        for record in records:
            for name in ("x", "P", "mu", "transition", "residual", "innovation_cov"):
                array = getattr(record, name, None)
                if array is not None:
                    with pytest.raises(ValueError, match="read-only"):
                        array[...] = 30.0
        assert computed() == before

    def test_a_state_count_other_than_the_model_count_is_rejected(self, params, grid_surface):
        bank = turbine_bank(params, grid_surface)
        rest = dict(mu=bank.mu, transition=bank.transition, noise=bank.noise)
        for k in (2, 4):
            states = (bank.states * 2)[:k]
            match = rf"stacked x \({k}, 2\) and P \({k}, 2, 2\) must be \(3, 2\) and \(3, 2, 2\)"
            with pytest.raises(ValueError, match=match):
                ModeBank(bank.models, states, **rest)
            with pytest.raises(ValueError, match=match):
                ModeBank(bank.models, x=[s.x for s in states], P=[s.P for s in states], **rest)

    def test_an_asymmetric_covariance_is_rejected(self, params, grid_surface):
        """The filters read P's upper off-diagonal entry alone, so a P whose two
        off-diagonal entries differ beyond rounding is refused where it is built."""
        bank = turbine_bank(params, grid_surface)
        rest = dict(mu=bank.mu, transition=bank.transition, noise=bank.noise)
        lopsided = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"^covariance P must be symmetric"):
            EstimatorState([1.0, 2.0], lopsided)
        with pytest.raises(ValueError, match=r"^covariance P must be symmetric"):
            ImmOutput([1.0, 2.0], lopsided, [1.0], 0.4)
        with pytest.raises(ValueError, match=r"^ModeBank\.P must be symmetric"):
            ModeBank(bank.models, x=bank.x, P=[np.eye(2), lopsided, np.eye(2)], **rest)
        rounded = np.array([[1.0, 0.5], [0.5 + 1e-13, 1.0]])
        assert EstimatorState([1.0, 2.0], rounded)._floats[2] == (1.0, 0.5, 0.5 + 1e-13, 1.0)
        ModeBank(bank.models, x=bank.x, P=[rounded] * 3, **rest)
        with_nan = EstimatorState([1.0, 2.0], [[math.nan, 0.5], [0.0, 1.0]])
        assert with_nan._floats[2][1:] == (0.5, 0.0, 1.0)

    def test_combine_and_mix_run_the_cycle_mixing_on_one_weight_row_per_state(
        self, params, grid_surface
    ):
        bank, out = imm_step(turbine_bank(params, grid_surface), 0.7201, ControlInput(0.0, 5e6))
        states, filters = bank.states, bank._floats[0]
        w = np.array([[0.5, 0.2, 0.1], [0.3, 0.7, 0.1], [0.2, 0.1, 0.8]])
        for j, mixed in enumerate(mix(states, w)):
            assert repr(mixed._floats) == repr(imm._mix2(w[:, j].tolist(), filters))
        x, P = combine(states, out.mu)
        x0, x1, P4 = imm._mix2(out.mu.tolist(), filters)
        assert x.tolist() == [x0, x1] and P.ravel().tolist() == list(P4)
        with pytest.raises(ValueError, match="one row per state"):
            combine(states, [0.5, 0.5])
        with pytest.raises(ValueError, match="one row per state"):
            combine(states, [0.25] * 4)
        with pytest.raises(ValueError, match="one row per state"):
            mix(states, np.eye(2))
        with pytest.raises(ValueError, match="one row per state"):
            mix(states, np.full((4, 3), 0.25))


# -- the paper's bank on the turbine's structure ---------------------------

SURFACE_KINDS = ("grid", "analytic")


def general_route(bank):
    """The same bank taken through the general float kernel: f, jac_f, h and
    jac_h read through ``transition2`` and ``measurement2``, the 2x2 algebra of
    ``propagate2`` and ``correct2``, and each mode's Cp from ``cp_at``."""
    twin = dataclasses.replace(bank)
    twin._fixed["_cp_base"] = None
    vars(twin)["_cp_base"] = None
    return twin


@st.composite
def turbine_case(draw):
    """A turbine bank, a measurement and an input.  The states reach below the
    rotor and wind floors, lambda and pitch leave the surface bounds, and
    offsets up to +-0.6 clamp Cp at 0 and at CP_CEILING."""
    kind = draw(st.sampled_from(SURFACE_KINDS))
    delta = draw(st.sampled_from([0.04, 0.2, 0.6]) | st.floats(0.0, 0.6))
    x = [(draw(st.floats(-0.5, 3.0)), draw(st.floats(-2.0, 60.0))) for _ in range(3)]
    P = []
    for _ in range(3):
        p00, p11 = draw(st.floats(1e-8, 1.0)), draw(st.floats(1e-6, 10.0))
        p01 = draw(st.floats(-0.95, 0.95)) * math.sqrt(p00 * p11) + 0.0  # never -0.0
        P.append([[p00, p01], [p01, p11]])
    mu = np.array([draw(st.floats(0.01, 1.0)) for _ in range(3)])
    q = (draw(st.floats(0.0, 1e-4)), draw(st.floats(1e-6, 1e-1)))
    r = draw(st.floats(1e-12, 1e-2))
    y = x[0][0] + draw(st.floats(-0.05, 0.05))
    u = ControlInput(draw(st.floats(-0.3, 0.9)), draw(st.floats(0.0, 2e7)))
    return kind, delta, x, P, mu / mu.sum(), q, r, y, u


def bank_of(surface, params, case):
    _, delta, x, P, mu, q, r, _, _ = case
    return ModeBank(
        models=[TurbineModel(params, surface, d) for d in (0.0, delta, -delta)],
        x=x, P=P, mu=mu, transition=symmetric_transition(3, 0.99),
        noise=NoiseModel(Q=np.diag([q[0] ** 2, q[1] ** 2]), R=[[r]]),
    )


def outcome(step, *args):
    """repr of what a step returns, which tells every float apart bit for bit
    (-0.0 from 0.0 too), or the NumericalError it raises."""
    try:
        return repr(step(*args))
    except NumericalError:
        return "NumericalError"


def imm_cycle(bank, y, u):
    new, out = imm_step(bank, y, u)
    return new._floats, out._floats, out.cp_estimate, new.underflow_count


def ekf_cycle(model, noise, x, P, y, u):
    pred = predict(EstimatorState(x, P), u, model, noise)
    state, report = update(pred, y, u, model, noise)
    return pred._floats, state._floats, report._floats


def ekf_cycle_general(model, noise, x, P, y, u):
    """The single filter's cycle composed of the general float kernel's steps."""
    f0, f1, *F = ekf.transition2(model, *x, u)
    P = ekf.propagate2(np.ravel(P).tolist(), F, noise.q_entries)
    pred = (f0, f1, P)
    h, h0, h1 = ekf.measurement2(model, f0, f1, u)
    z = y - h
    x0, x1, P, S = ekf.correct2(f0, f1, P, z, h0, h1, noise.R.item())
    return pred, (x0, x1, P), (z, S)


class TestTurbineStructure:
    """The paper's bank and the nominal filter run on the turbine's structure
    (F's bottom row (0, 1), H = (1, 0), one pitch lookup per cycle); that cycle
    equals the general float kernel's composition bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=turbine_case())
    @example(case=("grid", 0.04, [(0.01, 0.1), (3.0, 0.5), (0.05, 60.0)],  # floors; lambda out
                   [[[1e-4, 0.0], [0.0, 1.0]]] * 3, np.full(3, 1 / 3), (1e-4, 0.05), 1e-10,
                   0.02, ControlInput(-0.2, 1e6)))  # pitch below the bounds
    @example(case=("analytic", 0.6, [(0.7, 8.0), (1.0, 9.0), (1.2, 12.0)],  # Cp at the
                   [[[1e-4, 1e-5], [1e-5, 1.0]]] * 3, np.array([0.2, 0.3, 0.5]), (1e-4, 0.05),
                   1e-10, 0.71, ControlInput(0.0, 5e6)))  # ceiling (mode 1) and at 0 (mode 2)
    @example(case=("grid", 0.04, [(0.7, 8.0), (1.0, 9.0), (1.2, 12.0)],
                   [[[1e-4, -1e-5], [-1e-5, 1.0]]] * 3, np.array([0.5, 0.3, 0.2]), (0.0, 0.05),
                   1e-10, 0.69, ControlInput(0.8, 5e6)))  # pitch above the bounds
    def test_cycles_equal_the_general_kernel_bit_for_bit(
        self, params, grid_surface, analytic_surface, case
    ):
        surface = {"grid": grid_surface, "analytic": analytic_surface}[case[0]]
        bank = bank_of(surface, params, case)
        assert bank._cp_base is not None
        y, u = case[-2:]
        got = outcome(imm_cycle, bank, y, u)
        assert got != "NumericalError"  # these draws stay finite: every float is compared
        assert got == outcome(imm_cycle, general_route(bank), y, u)
        for model, x, P in zip(bank.models, case[2], case[3]):
            args = (model, bank.noise, np.array(x), np.array(P), y, u)
            got = outcome(ekf_cycle, *args)
            assert got != "NumericalError"
            assert got == outcome(ekf_cycle_general, *args)

    @settings(max_examples=100, deadline=None)
    @given(case=turbine_case())
    def test_turbine_cycle_is_predict_then_update(
        self, params, grid_surface, analytic_surface, case
    ):
        """``turbine_cycle`` returns what ``predict`` then ``update`` give a
        turbine filter, bit for bit: the corrected state, z and S."""
        surface = {"grid": grid_surface, "analytic": analytic_surface}[case[0]]
        bank = bank_of(surface, params, case)
        y, u = case[-2:]
        q, r = bank.noise.q_entries, bank.noise.R.item()
        for model, x, P in zip(bank.models, case[2], case[3]):
            pred = predict(EstimatorState(np.array(x), np.array(P)), u, model, bank.noise)
            state, report = update(pred, y, u, model, bank.noise)
            got = ekf.turbine_cycle(
                model, *x, np.ravel(P).tolist(), y, u.torque, surface.at_pitch(u.pitch), q, r
            )
            # repr tells every float apart bit for bit, -0.0 from 0.0 too
            assert repr(got) == repr((*state._floats, *report._floats))

    def test_failure_names_the_mode_and_its_offset(self, params, grid_surface):
        """A correction that overflows in one mode of the paper's bank: a huge
        residual times the large gain that mode 1's covariance gives its wind."""
        P = np.stack([np.diag([0.01, 4.0])] * 3)
        P[1] = [[1.0, 1e10], [1e10, 1e300]]
        bank = ModeBank(
            models=[TurbineModel(params, grid_surface, d) for d in (0.0, 0.04, -0.04)],
            x=[[0.72, 8.0]] * 3, P=P, mu=np.full(3, 1 / 3), transition=symmetric_transition(3, 0.99),
            noise=NoiseModel(Q=np.diag([1e-8, 1e-2]), R=[[1e-8]]),
        )
        assert bank._cp_base is not None
        with pytest.raises(NumericalError, match=r"^mode 1 \(Cp offset \+0\.04\): state or "
                                                 r"covariance is not finite after the correction: "
                                                 r"x=\(.*, inf\)"):
            imm_step(bank, 1e306, ControlInput(0.0, 5e6))

    def test_turbine_bank_on_two_surfaces_matches_straight_line(
        self, params, grid_surface, analytic_surface
    ):
        """Modes on different base maps take the general float kernel."""
        surfaces = (grid_surface, analytic_surface, grid_surface)
        bank = ModeBank(
            models=[TurbineModel(params, s, d) for s, d in zip(surfaces, (0.0, 0.0, 0.04))],
            states=[EstimatorState(np.array([0.72, 8.0]), np.diag([0.01, 4.0]))] * 3,
            mu=np.full(3, 1 / 3), transition=symmetric_transition(3, 0.99),
            noise=NoiseModel(Q=np.diag([1e-8, 1e-2]), R=[[1e-8]]),
        )
        assert bank._cp_base is None
        ks = range(30)
        check_against_straight_line(
            bank,
            [0.72 + 1e-3 * math.sin(0.4 * k) for k in ks],
            [ControlInput(0.02 + 0.01 * math.sin(k), 5e6) for k in ks],
        )
