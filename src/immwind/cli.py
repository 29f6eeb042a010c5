"""Command-line interface: run, validate and sweep experiments.

Exit codes: 0 success, 1 configuration error (an output file that cannot be
written included), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError, NumericalError
from .harness import run_experiment, write_outputs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="immwind",
        description=(
            "Run the multiple-model wind and power-coefficient estimation "
            "benchmark against a synthetic turbine plant."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="experiment config file")
        # each override's dest is the config field it replaces
        p.add_argument(
            "--seed",
            type=int,
            action="append",
            dest="seeds",
            help="replace the config seed list (repeatable)",
        )
        p.add_argument("--out", dest="out_dir", help="output directory override")
        p.add_argument("--scenario", choices=["below", "above"])
        p.add_argument("--schedule", choices=["walk", "regime"])
        p.add_argument("--delta-cp", type=float, dest="delta_cp")

    run_p = sub.add_parser("run", help="run one experiment and write CSV outputs")
    add_run_args(run_p)

    val_p = sub.add_parser("validate", help="check a config file's invariants")
    val_p.add_argument("--config", required=True)

    sweep_p = sub.add_parser(
        "sweep", help="repeat the experiment over a list of estimator Cp offsets"
    )
    add_run_args(sweep_p)
    sweep_p.add_argument(
        "--delta-cp-list",
        required=True,
        dest="delta_cp_list",
        help="comma-separated Cp offsets, e.g. 0.02,0.04,0.06",
    )
    return parser


def _apply_overrides(config, args):
    """The config with every field that a flag set replaced (and re-checked)."""
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(config)
        if getattr(args, f.name, None) is not None
    }
    return dataclasses.replace(config, **overrides)


def _run_one(config) -> int:
    result = run_experiment(config)
    try:
        written = write_outputs(result, config.out_dir)
    except OSError as exc:  # reported like an output directory that cannot be created
        raise ConfigError(str(exc)) from None
    agg = result.aggregate
    print(f"scenario={config.scenario} seeds={len(config.seeds)} failed={agg.n_failed}")
    print(
        f"  imm: wind mean {agg.imm_wind.mean_pct:+.3f}% std {agg.imm_wind.std_pct:.3f}%"
        f" | cp mean {agg.imm_cp.mean_pct:+.3f}% std {agg.imm_cp.std_pct:.3f}%"
    )
    print(
        f"  kf : wind mean {agg.kf_wind.mean_pct:+.3f}% std {agg.kf_wind.std_pct:.3f}%"
        f" | cp mean {agg.kf_cp.mean_pct:+.3f}% std {agg.kf_cp.std_pct:.3f}%"
    )
    print(f"  wrote {len(written)} files to {Path(config.out_dir).resolve()}")
    return 2 if result.failed else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "validate":
            print(f"{args.config}: OK")
            return 0
        config = _apply_overrides(config, args)
        configs = [config]
        if args.command == "sweep":
            try:
                deltas = [float(v) for v in args.delta_cp_list.split(",") if v.strip()]
            except ValueError:
                raise ConfigError(
                    f"--delta-cp-list must be comma-separated numbers, got {args.delta_cp_list!r}"
                ) from None
            if not deltas:
                raise ConfigError("--delta-cp-list is empty")
            # every per-delta directory and config is built (and so checked) before any run
            dirs = {}
            for delta in deltas:
                name = f"delta_cp_{delta:g}"
                if name in dirs:
                    raise ConfigError(
                        f"--delta-cp-list values {dirs[name]!r} and {delta!r} "
                        f"would both write to {name}"
                    )
                dirs[name] = delta
            configs = [
                dataclasses.replace(config, delta_cp=delta, out_dir=str(Path(config.out_dir, name)))
                for name, delta in dirs.items()
            ]
        # every output directory is created before the first run
        for cfg in configs:
            try:
                Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc}") from None
        status = 0
        for cfg in configs:
            if args.command == "sweep":
                print(f"--- delta_cp = {cfg.delta_cp:g} ---")
            status = max(status, _run_one(cfg))
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
