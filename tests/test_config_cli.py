import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immwind import ConfigError, load_config, parse_config, format_config
from immwind.cli import main
from immwind.config import ExperimentConfig


def _positive(hi=1e9):
    return st.floats(1e-9, hi)


@st.composite
def valid_configs(draw):
    """Valid experiment configs: auto values, several seeds, non-uniform mu0."""
    duration = draw(st.floats(1.0, 3600.0))
    raw_mu0 = draw(st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda t: sum(t) > 0.1))
    total = sum(raw_mu0)
    path_text = st.text(alphabet="abcxyz019_-./", min_size=1, max_size=12)
    return ExperimentConfig(
        scenario=draw(st.sampled_from(["below", "above"])),
        v_op=draw(st.none() | st.floats(0.5, 40.0)),
        turbulence_intensity=draw(st.floats(0.0, 0.5)),
        duration_s=duration,
        dt=draw(st.floats(1e-3, 0.1)),
        seeds=tuple(draw(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=6))),
        schedule=draw(st.sampled_from(["regime", "walk"])),
        schedule_delta_max=draw(st.floats(0.0, 0.2)),
        delta_cp=draw(st.floats(0.0, 0.2)),
        pi_stay=draw(st.floats(0.5, 1.0)),
        mu0=tuple(w / total for w in raw_mu0),
        q_omega_std=draw(st.floats(0.0, 1.0)),
        q_wind_std=draw(st.none() | _positive(10.0)),
        r_std=draw(_positive()),
        meas_noise_std=draw(st.floats(0.0, 1.0)),
        p0_omega_std=draw(_positive()),
        p0_wind_std=draw(_positive()),
        settle_s=duration * draw(st.floats(0.0, 0.99)),
        hist_bins=draw(st.integers(1, 500)),
        out_dir=draw(path_text),
        cp_table=draw(st.sampled_from(["builtin-grid", "builtin-analytic"]) | path_text),
        inertia=draw(_positive(1e12)),
        radius=draw(_positive(500.0)),
        air_density=draw(_positive(10.0)),
        omega_rated=draw(_positive(10.0)),
        tau_rated=draw(_positive(1e9)),
    )


class TestParsing:
    @settings(max_examples=300, deadline=None)
    @given(cfg=valid_configs())
    def test_round_trip_property(self, cfg):
        cfg.validate()
        assert parse_config(format_config(cfg)) == cfg

    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        assert parse_config(format_config(cfg)) == cfg

    def test_custom_round_trip(self):
        cfg = ExperimentConfig(
            scenario="above",
            v_op=14.5,
            seeds=(3, 1, 4),
            q_wind_std=0.123,
            mu0=(0.5, 0.25, 0.25),
            out_dir="results",
        )
        assert parse_config(format_config(cfg)) == cfg

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nscenario = above  # trailing\n")
        assert cfg.scenario == "above"

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("not_a_key = 3\n")

    def test_duplicate_key_is_error(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("dt = 0.05\ndt = 0.02\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("scenario = below\ndt = fast\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just some words\n")

    def test_mu0_needs_three_entries(self):
        with pytest.raises(ConfigError, match="mu0"):
            parse_config("mu0 = 0.5,0.5\n")

    def test_auto_values(self):
        cfg = parse_config("v_op = auto\nq_wind_std = auto\n")
        assert cfg.v_op is None
        assert cfg.q_wind_std is None


class TestValidation:
    def test_default_config_is_valid(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(scenario="sideways"), "scenario"),
            (dict(turbulence_intensity=0.9), "turbulence_intensity"),
            (dict(seeds=()), "seed"),
            (dict(schedule="sine"), "schedule"),
            (dict(pi_stay=1.5), "pi_stay"),
            (dict(mu0=(0.9, 0.2, 0.2)), "mu0"),
            (dict(r_std=0.0), "r_std"),
            (dict(settle_s=700.0), "settle_s"),
            (dict(hist_bins=0), "hist_bins"),
            (dict(dt=0.5), "dt"),
            (dict(tau_rated=-1.0), "tau_rated"),
            (dict(delta_cp=-0.1), "delta_cp"),
        ],
    )
    def test_violations_reported(self, overrides, fragment):
        with pytest.raises(ConfigError, match=fragment):
            ExperimentConfig(**overrides).validate()

    def test_scenario_defaults(self):
        assert ExperimentConfig(scenario="below").effective_v_op() == 8.0
        assert ExperimentConfig(scenario="above").effective_v_op() == 15.0
        assert ExperimentConfig(scenario="above", v_op=12.0).effective_v_op() == 12.0

    def test_auto_wind_noise_scales_with_scenario(self):
        q_below = ExperimentConfig(scenario="below").effective_q_wind_std()
        q_above = ExperimentConfig(scenario="above").effective_q_wind_std()
        assert q_above == pytest.approx(q_below * 15.0 / 8.0, rel=1e-12)
        assert ExperimentConfig(turbulence_intensity=0.0).effective_q_wind_std() > 0.0

    def test_transition_matrix(self):
        pi = ExperimentConfig(pi_stay=0.99).transition()
        np.testing.assert_allclose(pi.sum(axis=1), np.ones(3), atol=1e-15)
        assert pi[0, 0] == 0.99


class TestSurfaceSelection:
    def test_builtin_choices(self):
        from immwind import AnalyticCpSurface, GridCpSurface

        assert isinstance(ExperimentConfig(cp_table="builtin-grid").surface(), GridCpSurface)
        assert isinstance(
            ExperimentConfig(cp_table="builtin-analytic").surface(), AnalyticCpSurface
        )

    def test_csv_path(self, tmp_path):
        from immwind import default_grid_surface

        path = tmp_path / "table.csv"
        default_grid_surface().to_csv(path)
        surf = ExperimentConfig(cp_table=str(path)).surface()
        assert surf.evaluate(8.0, 0.0) == pytest.approx(
            default_grid_surface().evaluate(8.0, 0.0), rel=1e-12
        )

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig(cp_table="/nonexistent/table.csv").surface()


class TestCpTableErrors:
    """A bad ``cp_table`` CSV fails with a ConfigError that names the file."""

    def load(self, tmp_path, text):
        path = tmp_path / "table.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(cp_table=str(path)).surface()
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        return message[len(f"{path}: "):]

    @pytest.mark.parametrize("text", [
        ",0,5,inf\n1,0.4,0.4,0.4\n2,0.4,0.4,0.4\n",  # pitch header
        ",0,5\n1,0.4,0.4\n5,0.4,0.4\ninf,0.4,0.4\n",  # lambda column
        ",0,5\nnan,0.4,0.4\n2,0.4,0.4\n",
    ])
    def test_non_finite_axis(self, tmp_path, text):
        assert self.load(tmp_path, text) == "grid axes must be finite"

    def test_axis_spacing_past_a_double(self, tmp_path):
        text = ",0,5\n-1e308,0.4,0.4\n1e308,0.4,0.4\n"
        assert self.load(tmp_path, text) == "grid axis lam_axis spacing must be finite"

    def test_nan_cell(self, tmp_path):
        assert self.load(tmp_path, ",0,5\n1,0.4,nan\n2,0.4,0.4\n") == "grid values must be finite"

    def test_decreasing_axis(self, tmp_path):
        assert self.load(tmp_path, ",5,0\n1,0.4,0.4\n2,0.4,0.4\n") == (
            "grid axes must be strictly increasing"
        )

    def test_ragged_row(self, tmp_path):
        assert self.load(tmp_path, ",0,5\n1,0.4,0.4\n\n2,0.4\n") == (
            "ragged Cp table: row 4 has 2 cells, the pitch header 3"
        )


def write_tiny_config(path, **overrides):
    cfg = ExperimentConfig(duration_s=40.0, seeds=(1,), settle_s=10.0, **overrides)
    path.write_text(format_config(cfg), encoding="utf-8")
    return cfg


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        write_tiny_config(cfg_path)
        assert main(["validate", "--config", str(cfg_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("pi_stay = 1.7\n", encoding="utf-8")
        assert main(["validate", "--config", str(cfg_path)]) == 1
        assert "pi_stay" in capsys.readouterr().err

    def test_validate_rejects_unknown_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("mystery = 1\n", encoding="utf-8")
        assert main(["validate", "--config", str(cfg_path)]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        write_tiny_config(cfg_path, out_dir=str(tmp_path / "out"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        for name in ("summary.csv", "timeseries_1.csv", "hist_1.csv", "config_echo.txt"):
            assert (out / name).exists()

    def test_run_overrides(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        write_tiny_config(cfg_path, out_dir=str(tmp_path / "ignored"))
        out = tmp_path / "ovr"
        code = main(
            ["run", "--config", str(cfg_path), "--seed", "5", "--seed", "6",
             "--out", str(out), "--scenario", "above", "--schedule", "walk",
             "--delta-cp", "0.02"]
        )
        assert code == 0
        assert (out / "timeseries_5.csv").exists()
        assert (out / "timeseries_6.csv").exists()
        echoed = load_config(out / "config_echo.txt")
        assert echoed.scenario == "above"
        assert echoed.schedule == "walk"
        assert echoed.delta_cp == 0.02
        assert echoed.seeds == (5, 6)

    def test_sweep_creates_per_delta_dirs(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        write_tiny_config(cfg_path, out_dir=str(tmp_path / "sweep"))
        code = main(["sweep", "--config", str(cfg_path), "--delta-cp-list", "0.02,0.04"])
        assert code == 0
        assert (tmp_path / "sweep" / "delta_cp_0.02" / "summary.csv").exists()
        assert (tmp_path / "sweep" / "delta_cp_0.04" / "summary.csv").exists()

    def test_sweep_rejects_bad_list(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        write_tiny_config(cfg_path)
        assert main(["sweep", "--config", str(cfg_path), "--delta-cp-list", "a,b"]) == 1


FLOAT_KEYS = [
    f.name for f in dataclasses.fields(ExperimentConfig) if f.type in ("float", "float | None")
]
NON_FINITE = [math.nan, math.inf, -math.inf]


def _with_line(text, key, raw):
    """Config text with ``key``'s line replaced by ``key = raw``."""
    kept = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    return "\n".join(kept + [f"{key} = {raw}"]) + "\n"


class TestBuiltConfigIsValid:
    def test_every_float_key_is_covered(self):
        assert len(FLOAT_KEYS) == 19

    @pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, key, bad):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**{key: bad})
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key} = {bad!r}\n")

    @settings(max_examples=100, deadline=None)
    @given(
        cfg=valid_configs(),
        key=st.sampled_from(FLOAT_KEYS),
        bad=st.sampled_from(NON_FINITE),
    )
    def test_non_finite_float_rejected_from_any_valid_config(self, cfg, key, bad):
        with pytest.raises(ConfigError, match=key):
            dataclasses.replace(cfg, **{key: bad})
        with pytest.raises(ConfigError, match=key):
            parse_config(_with_line(format_config(cfg), key, repr(bad)))

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_nan_in_mu0_rejected(self, index):
        mu0 = [0.5, 0.5, 0.5]
        mu0[index] = math.nan
        with pytest.raises(ConfigError, match="mu0"):
            ExperimentConfig(mu0=tuple(mu0))
        with pytest.raises(ConfigError, match="mu0"):
            parse_config("mu0 = " + ",".join(repr(w) for w in mu0) + "\n")

    @pytest.mark.parametrize("key", ["out_dir", "cp_table"])
    @pytest.mark.parametrize(
        "value",
        ["runs#1", "#", " padded ", "padded ", "\tpadded", "two\nlines", "two\rlines",
         "two\x0blines", "two\u2028lines", "end\n"],
        ids=repr,
    )
    def test_text_that_cannot_read_back_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**{key: value})

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(["out_dir", "cp_table"]), value=st.text(max_size=12))
    def test_accepted_text_reads_back(self, key, value):
        try:
            cfg = ExperimentConfig(**{key: value})
        except ConfigError:
            return
        assert parse_config(format_config(cfg)) == cfg

    def test_inner_space_and_equals_read_back(self):
        cfg = ExperimentConfig(out_dir="my runs=1", cp_table="tables/a b.csv")
        assert parse_config(format_config(cfg)) == cfg

    @pytest.mark.parametrize(
        "key, value",
        [("mu0", (0.5, 0.5)), ("hist_bins", 2.5), ("seeds", (1.5,)), ("v_op", "8"),
         ("seeds", 3), ("scenario", None), ("hist_bins", True)],
    )
    def test_wrong_type_or_length_rejected_when_built(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**{key: value})

    def test_repeated_seed_kept_once_in_first_order(self):
        assert ExperimentConfig(seeds=(3, 1, 3, 2, 1)).seeds == (3, 1, 2)
        assert ExperimentConfig(seeds=[2, 2]).seeds == (2,)
        assert parse_config("seeds = 4,4,1,4\n").seeds == (4, 1)

    def test_repeated_seed_runs_once(self):
        from immwind import run_experiment

        result = run_experiment(ExperimentConfig(duration_s=20.0, seeds=(1, 1), settle_s=5.0))
        assert [run.seed for run in result.runs] == [1]
        assert result.aggregate.n_seeds == 1


class TestCliChecksEveryConfig:
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_nan_in_file_exits_1(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "exp.cfg"
        write_tiny_config(cfg_path, out_dir=str(tmp_path / "out"))
        text = _with_line(cfg_path.read_text(encoding="utf-8"), "r_std", "nan")
        cfg_path.write_text(text, encoding="utf-8")
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "r_std" in err
        assert not (tmp_path / "out").exists()

    def test_bad_out_override_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        write_tiny_config(cfg_path)
        out = tmp_path / "runs#1"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "out_dir" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_seed_flag_runs_once(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        write_tiny_config(cfg_path)
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(cfg_path), "--seed", "5", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        assert "seeds=1 " in capsys.readouterr().out
        assert load_config(out / "config_echo.txt").seeds == (5,)
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            assert {row["n_seeds"] for row in csv.DictReader(fh)} == {"1"}

    def test_sweep_rejects_negative_delta_before_any_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        write_tiny_config(cfg_path, out_dir=str(tmp_path / "sweep"))
        code = main(["sweep", "--config", str(cfg_path), "--delta-cp-list", "0.02,-0.01"])
        assert code == 1
        assert "delta_cp" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()
