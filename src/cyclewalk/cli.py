"""Command-line entry point.

Subcommands: ``run`` (full experiment bundle from a config file),
``period-scan``, ``depth-report`` and ``dump-circuit``.  Exit codes:
0 success; 2 configuration error, that is a usage error, a missing or
malformed config file, an unknown section or key, or a field, flag or
argument out of range, printed as ``config error: <section.key>: ...``;
1 runtime error.  Every check of a value lives in ``cyclewalk.experiments``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from .experiments import (
    ConfigError,
    ExperimentConfig,
    _parse_coin,
    _parse_noise,
    _parse_sections,
    config_from_text,
    dump_circuit,
    run_depth_report,
    run_experiment,
    run_period_scan,
)

CONFIG_EXIT = 2
RUNTIME_EXIT = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclewalk",
        description="Quantum-walk-on-a-cycle experiments: exact, sampled and noisy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured experiment bundle")
    run.add_argument("--config", required=True, help="experiment config file")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--shots", type=int, help="override the shot count")
    run.add_argument("--noise", help="config file whose [noise] section to use")
    run.add_argument("--dd", choices=["none", "xy4"], help="dynamical decoupling")
    run.add_argument(
        "--opt", dest="opt_level", type=int, choices=[0, 1, 3], help="optimization level"
    )
    run.add_argument("--out", dest="out_dir", help="output directory")
    run.add_argument("--overlay", help="t,value CSV plotted alongside (e.g. hardware data)")

    scan = sub.add_parser("period-scan", help="find the walk period for one coin")
    scan.add_argument("--cycle", type=int, required=True)
    scan.add_argument("--coin", required=True, help="comma triple r,a,b")
    scan.add_argument("--t-max", type=int, default=1000)
    scan.add_argument("--out", help="directory for period_scan.csv")

    depth = sub.add_parser("depth-report", help="depth and gate counts vs steps")
    depth.add_argument("--cycle", type=int, required=True)
    depth.add_argument("--pattern", default="AABB")
    depth.add_argument("--t-max", type=int, default=25)
    depth.add_argument("--opt", default="logical", choices=["logical", "0", "1", "3"])
    depth.add_argument("--out", help="directory for depth_report.csv")

    dump = sub.add_parser("dump-circuit", help="serialize a walk circuit")
    dump.add_argument("--config", required=True)
    dump.add_argument("--t", type=int, required=True, help="number of steps")
    dump.add_argument("--native", action="store_true", help="transpile first")
    dump.add_argument("--out", help="directory for circuit.txt (default stdout)")
    return parser


def _read_file(path_str: str, what: str) -> str:
    path = Path(path_str)
    if not path.exists():
        raise ConfigError(f"{what}: file not found: {path}")
    return path.read_text()


def _load_config(ns: argparse.Namespace) -> ExperimentConfig:
    """The config file with every flag that is set replacing its field."""
    cfg = config_from_text(_read_file(ns.config, "config"))
    updates = {
        f.name: getattr(ns, f.name)
        for f in fields(ExperimentConfig)
        if getattr(ns, f.name, None) is not None
    }
    if "noise" in updates:
        updates["noise"] = _parse_noise(_parse_sections(_read_file(ns.noise, "noise")))
        if updates["noise"] is None:
            raise ConfigError(f"noise: {ns.noise} has no [noise] section")
    return replace(cfg, **updates)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "run":
            cfg = _load_config(ns)
            paths = run_experiment(cfg)
            for key in sorted(paths):
                print(f"{key}: {paths[key]}")
        elif ns.command == "period-scan":
            coin = _parse_coin("coin", ns.coin)
            strict, loose, csv_text = run_period_scan(ns.cycle, coin, ns.t_max)
            print(f"strict: period={strict.period} residual={strict.residual:.3e}")
            print(
                f"phase-insensitive: period={loose.period} residual={loose.residual:.3e}"
            )
            if ns.out:
                out = Path(ns.out)
                out.mkdir(parents=True, exist_ok=True)
                (out / "period_scan.csv").write_text(csv_text)
                print(f"csv: {out / 'period_scan.csv'}")
        elif ns.command == "depth-report":
            csv_text = run_depth_report(ns.cycle, ns.pattern, ns.t_max, ns.opt)
            if ns.out:
                out = Path(ns.out)
                out.mkdir(parents=True, exist_ok=True)
                (out / "depth_report.csv").write_text(csv_text)
                print(f"csv: {out / 'depth_report.csv'}")
            else:
                print(csv_text, end="")
        elif ns.command == "dump-circuit":
            cfg = _load_config(ns)
            text = dump_circuit(cfg, ns.t, native=ns.native)
            if ns.out:
                out = Path(ns.out)
                out.mkdir(parents=True, exist_ok=True)
                (out / "circuit.txt").write_text(text)
                print(f"circuit: {out / 'circuit.txt'}")
            else:
                print(text, end="")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
