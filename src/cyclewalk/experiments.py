"""Experiment runner: per-step probability-at-origin curves with sampled and
noisy variants, Hellinger fidelity series, period scans and depth reports.

Outputs are deterministic for a fixed config: CSV files are the canonical
artifact, SVG line charts are a plotting-free convenience, and a manifest
(the config text plus a metadata section) allows regeneration of the whole
bundle.
"""

from __future__ import annotations

import configparser
import io
import math
import string
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .builders import (
    build_walk_circuit_3cycle,
    build_walk_circuit_4cycle,
    build_walk_circuit_even,
)
from .circuit import Circuit, depth_report, to_text
from .metrics import hellinger_fidelity
from .noise import NoiseModel
from .period import DEFAULT_TOL, PeriodResult, find_period_eigen, find_period_power
from .simulate import (
    BundleCache,
    measure_positions,
    readout_distribution,
    run_exact,
    run_noisy,
    state_to_density,
)
from .transpile import OptLevel, insert_dd, schedule, transpile
from .walk import CoinParams, CoinSchedule, parrondo_schedule, step_operator

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "default_coins",
    "config_from_text",
    "config_to_text",
    "build_walk_circuit",
    "run_experiment",
    "run_period_scan",
    "run_depth_report",
    "dump_circuit",
]

SUPPORTED_CYCLES = (3, 4, 8)


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


def default_coins(cycle: int) -> dict[str, CoinParams]:
    """The chaotic coin pairs whose AABB alternation is periodic (period 20)
    on the 4- and 3-cycles; the Hadamard pair for the 8-cycle."""
    if cycle == 4:
        return {"A": CoinParams(0.998489), "B": CoinParams(0.119545)}
    if cycle == 3:
        return {"A": CoinParams(0.264734), "B": CoinParams(0.801571)}
    if cycle == 8:
        return {"A": CoinParams(0.5), "B": CoinParams(0.5)}
    raise ConfigError(f"cycle must be one of {SUPPORTED_CYCLES}, got {cycle}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment bundle.

    This dataclass is the config schema: its scalar fields are the
    ``[experiment]`` keys, and ``__post_init__`` is the one place their
    values are checked.
    """

    cycle: int = 4
    # empty means the cycle's default_coins
    coins: dict[str, CoinParams] = field(default_factory=dict)
    pattern: str = "AABB"
    t_max: int = 25
    shots: int = 100_000
    seed: int = 1234
    opt_level: OptLevel = OptLevel.L3
    noise: NoiseModel | None = None
    dd: str = "none"
    out_dir: str = "results"
    # optional externally measured probability curve (CSV of t,value rows),
    # plotted alongside the computed series and never generated here
    overlay: str = ""

    def __post_init__(self) -> None:
        if self.cycle not in SUPPORTED_CYCLES:
            raise ConfigError(f"cycle: must be one of {SUPPORTED_CYCLES}, got {self.cycle}")
        if not self.coins:
            object.__setattr__(self, "coins", default_coins(self.cycle))
        for label in self.coins:
            # the config file stores a label as a case-folded ini key
            if len(label) != 1 or label not in string.ascii_uppercase:
                raise ConfigError(f"coins: label {label!r} must be one letter A-Z")
        if self.opt_level not in tuple(OptLevel):
            raise ConfigError(f"opt_level: must be 0, 1 or 3, got {self.opt_level}")
        object.__setattr__(self, "opt_level", OptLevel(self.opt_level))
        if self.t_max < 1:
            raise ConfigError(f"t_max: must be >= 1, got {self.t_max}")
        if self.shots < 0:
            raise ConfigError(f"shots: must be >= 0, got {self.shots}")
        if not self.pattern:
            raise ConfigError("pattern: must not be empty")
        missing = sorted(set(self.pattern) - set(self.coins))
        if missing:
            raise ConfigError(f"pattern: labels {missing} have no coin binding")
        if self.dd not in ("none", "xy4"):
            raise ConfigError(f"dd: must be 'none' or 'xy4', got {self.dd!r}")
        if self.dd == "xy4" and self.noise is None:
            raise ConfigError("dd: xy4 requires a noise section (DD acts on idle windows)")
        for key, path in (("out", self.out_dir), ("overlay", self.overlay)):
            # an ini value is one line, read back stripped
            if path != path.strip() or len(path.splitlines()) > 1:
                raise ConfigError(
                    f"{key}: {path!r} must be one line with no surrounding whitespace"
                )

    def schedule(self) -> CoinSchedule:
        return parrondo_schedule(self.pattern, self.coins, self.t_max)


def build_walk_circuit(cycle: int, schedule_: CoinSchedule, steps: int) -> Circuit:
    if cycle == 4:
        return build_walk_circuit_4cycle(schedule_, steps)
    if cycle == 3:
        return build_walk_circuit_3cycle(schedule_, steps)
    if cycle == 8:
        return build_walk_circuit_even(3, schedule_, steps)
    raise ConfigError(f"cycle: no circuit builder for {cycle}")


# ---------------------------------------------------------------------------
# config file format (ini-style sections of key = value pairs), read and
# written from the dataclass fields: [experiment] holds ExperimentConfig's
# scalar fields in field order (``out`` names ``out_dir``), [coins] binds
# labels to "r, a, b" triples, [noise] holds NoiseModel's fields, and [meta]
# (a manifest's provenance) is accepted and not read.

_EXPERIMENT_KEYS = {
    ("out" if f.name == "out_dir" else f.name): f
    for f in fields(ExperimentConfig)
    if f.name not in ("coins", "noise")
}
_NOISE_KEYS = tuple(f.name for f in fields(NoiseModel))
_SECTION_KEYS = {"experiment": _EXPERIMENT_KEYS, "noise": _NOISE_KEYS}


def config_to_text(cfg: ExperimentConfig) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    exp = {}
    for key, f in _EXPERIMENT_KEYS.items():
        value = getattr(cfg, f.name)
        if value == f.default == "":
            continue  # an unset optional path (overlay) is left out
        exp[key] = value if isinstance(value, str) else str(int(value))
    parser["experiment"] = exp
    parser["coins"] = {
        label: f"{p.r!r}, {p.a!r}, {p.b!r}" for label, p in sorted(cfg.coins.items())
    }
    if cfg.noise is not None:
        parser["noise"] = {key: repr(getattr(cfg.noise, key)) for key in _NOISE_KEYS}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _parse_value(where: str, raw: str, cast):
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r}") from exc


def _parse_sections(text: str) -> configparser.ConfigParser:
    """Config text as sections; every section and key must be in the schema."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config: {exc}") from exc
    for name in parser.sections():
        if name in _SECTION_KEYS:
            for key in parser[name]:
                if key not in _SECTION_KEYS[name]:
                    raise ConfigError(f"{name}.{key}: unknown key")
        elif name not in ("coins", "meta"):
            raise ConfigError(f"[{name}]: unknown section")
    return parser


def _parse_coin(where: str, text: str) -> CoinParams:
    """A coin written as the triple 'r, a, b'."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"{where}: need 'r, a, b', got {text!r}")
    try:
        return CoinParams(*(float(p) for p in parts))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_noise(parser: configparser.ConfigParser) -> NoiseModel | None:
    """The [noise] section as a NoiseModel; None when there is no such section."""
    if "noise" not in parser:
        return None
    kwargs = {
        key: _parse_value(f"noise.{key}", raw, float) for key, raw in parser["noise"].items()
    }
    try:
        return NoiseModel(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc


def config_from_text(text: str) -> ExperimentConfig:
    parser = _parse_sections(text)
    if "experiment" not in parser:
        raise ConfigError("config: missing [experiment] section")
    exp = parser["experiment"]
    kwargs = {
        f.name: _parse_value(
            f"experiment.{key}", exp[key], str if isinstance(f.default, str) else int
        )
        for key, f in _EXPERIMENT_KEYS.items()
        if key in exp
    }
    coins = parser["coins"] if "coins" in parser else {}
    kwargs["coins"] = {
        label.upper(): _parse_coin(f"coins.{label}", triple) for label, triple in coins.items()
    }
    kwargs["noise"] = _parse_noise(parser)
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"experiment.{exc}") from exc


# ---------------------------------------------------------------------------
# SVG line charts (polyline + axis primitives, no plotting dependency)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def svg_line_chart(series: dict[str, tuple[list[float], list[float]]], y_label: str) -> str:
    """Line chart of y in [0, 1.05] against the time step."""
    width, height, margin = 640, 420, 56
    xs_all = [x for xs, _ in series.values() for x in xs] or [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = 0.0, 1.05
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def px(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4
        yv = y_lo + i * (y_hi - y_lo) / 4
        parts.append(
            f'<text x="{px(xv):.1f}" y="{height - margin + 18}" font-size="11" '
            f'text-anchor="middle">{xv:g}</text>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{py(yv):.1f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle">{yv:.3g}</text>'
        )
        parts.append(
            f'<line x1="{margin}" y1="{py(yv):.1f}" x2="{width - margin}" '
            f'y2="{py(yv):.1f}" stroke="#dddddd"/>'
        )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="13" '
        f'text-anchor="middle">time step</text>'
    )
    parts.append(
        f'<text x="16" y="{height / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {height / 2:.0f})">{y_label}</text>'
    )
    for idx, (label, (xs, ys)) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = margin + 16 * idx
        parts.append(
            f'<line x1="{width - margin - 120}" y1="{ly}" x2="{width - margin - 96}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - margin - 90}" y="{ly + 4}" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# experiment pipeline

def _derived_seed(master: int, step: int) -> int:
    return (master * 1_000_003 + step) % (2**63)


def run_experiment(cfg: ExperimentConfig) -> dict[str, Path]:
    """Run the configured walk for t = 1 .. t_max and write the bundle.

    Writes probability.csv / probability.svg (exact, sampled and noisy
    probability at the starting position vs step), fidelity.csv /
    fidelity.svg (Hellinger fidelity of sampled and noisy against exact),
    and a manifest sufficient to regenerate everything.  The circuits are
    built first, then (with noise) transpiled, scheduled and decoupled, and
    one BundleCache carries the work they share.
    """
    overlay = _read_overlay(cfg.overlay) if cfg.overlay else None
    out = _output_dir(cfg.out_dir)
    sched = cfg.schedule()
    steps = list(range(1, cfg.t_max + 1))
    prob_cols: dict[str, list[float]] = {"exact": []}
    fid_cols: dict[str, list[float]] = {}
    circuits = [build_walk_circuit(cfg.cycle, sched, t) for t in steps]
    cache = BundleCache(cfg.noise, circuits[0].width, circuits)
    if cfg.noise is not None:
        nm = cfg.noise
        scheduled = [schedule(transpile(c, cfg.opt_level, cache), nm, cache) for c in circuits]
        dd = [insert_dd(sc, nm) for sc in scheduled] if cfg.dd == "xy4" else scheduled
        cache.scheduled, rho0 = tuple(dd), state_to_density(_ground_state(cache.width))
    for t, circuit in zip(steps, circuits):
        state = run_exact(circuit, _ground_state(circuit.width), cache)
        exact = measure_positions(state, circuit.measured)
        prob_cols["exact"].append(exact.outcomes.get(0, 0.0))
        if cfg.shots > 0:
            sampled = measure_positions(
                state, circuit.measured, shots=cfg.shots, seed=_derived_seed(cfg.seed, t)
            )
            prob_cols.setdefault("sampled", []).append(sampled.outcomes.get(0, 0) / cfg.shots)
            fid_cols.setdefault("sampled", []).append(hellinger_fidelity(sampled, exact))
        if cfg.noise is not None:
            rho = run_noisy(cache.scheduled[t - 1], rho0, cfg.noise, cache)
            noisy = readout_distribution(rho, circuit.measured, cfg.noise)
            prob_cols.setdefault("noisy", []).append(noisy.outcomes.get(0, 0.0))
            fid_cols.setdefault("noisy", []).append(hellinger_fidelity(noisy, exact))

    prob_series = {k: ([float(t) for t in steps], v) for k, v in prob_cols.items()}
    if overlay is not None:
        label, xs, ys = overlay
        prob_series[label] = (xs, ys)

    header = "# compare=" + ",".join(f"{k}:exact" for k in fid_cols) if fid_cols else "# compare=none"
    texts = {
        "probability.csv": _table_csv("t", steps, prob_cols),
        "fidelity.csv": header + "\n" + _table_csv("t", steps, fid_cols),
        "probability.svg": svg_line_chart(prob_series, "probability at start"),
        "fidelity.svg": svg_line_chart(
            {k: ([float(t) for t in steps], v) for k, v in fid_cols.items()},
            "Hellinger fidelity vs exact",
        ),
        "manifest": _manifest_text(cfg),
    }
    # keyed probability_csv, ..., manifest
    return {
        name.replace(".", "_"): _write_text(out / name, text)
        for name, text in texts.items()
    }


def _ground_state(width: int) -> np.ndarray:
    state = np.zeros(1 << width, dtype=complex)
    state[0] = 1.0
    return state


def _read_text(path_str: str, flag: str) -> str:
    """The text of a user-named input file; a missing, unreadable or
    undecodable file is a ConfigError that names ``flag``."""
    path = Path(path_str)
    try:
        return path.read_text()
    except FileNotFoundError:
        raise ConfigError(f"{flag}: file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{flag}: cannot read {path}: {exc}") from exc


def _output_dir(path_str: str) -> Path:
    """The user-named output directory, created if missing; a path that
    cannot be a directory is a ConfigError that names ``out``."""
    out = Path(path_str)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot create output directory {out}: {exc}") from exc
    return out


def _write_text(path: Path, text: str) -> Path:
    """Write a user-named output file; a path that cannot be written is a
    ConfigError that names ``out``."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"out: cannot write {path}: {exc}") from exc
    return path


def _read_overlay(path_str: str) -> tuple[str, list[float], list[float]]:
    """User-supplied t,value CSV plotted alongside the computed curves.

    An optional ``# label=<name>`` comment names the series.  Rows before
    the first numeric row are headers and skipped; every later row must be
    two finite numbers, else ConfigError names the line.
    """
    path = Path(path_str)
    label = path.stem
    xs: list[float] = []
    ys: list[float] = []
    for n, line in enumerate(_read_text(path_str, "overlay").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "label=" in line:
                label = line.split("label=", 1)[1].strip()
            continue
        try:
            x, y = (float(v) for v in line.split(","))
        except ValueError:
            if not xs:
                continue  # header row
            raise ConfigError(f"overlay: {path} line {n}: need t,value, got {line!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ConfigError(f"overlay: {path} line {n}: values must be finite, got {line!r}")
        xs.append(x)
        ys.append(y)
    if not xs:
        raise ConfigError(f"overlay: no t,value rows in {path}")
    return label, xs, ys


def _table_csv(index_name: str, index: list, columns: dict[str, list]) -> str:
    lines = [",".join([index_name] + list(columns))]
    for i, idx in enumerate(index):
        row = [str(idx)] + [repr(col[i]) for col in columns.values()]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _manifest_text(cfg: ExperimentConfig) -> str:
    meta = configparser.ConfigParser()
    meta["meta"] = {
        "generator": f"cyclewalk {__version__}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    buf = io.StringIO()
    meta.write(buf)
    return config_to_text(cfg) + buf.getvalue()


# ---------------------------------------------------------------------------
# period scan, depth report, circuit dump

def run_period_scan(
    cycle: int, coin: CoinParams, t_max: int = 1000
) -> tuple[PeriodResult, PeriodResult, str]:
    """Strict and phase-insensitive period of the walk step operator.

    Returns (strict, phase_insensitive, csv_text); both finders are run and
    cross-checked, and the CSV reports the matrix-power results.
    """
    if cycle < 3:
        raise ConfigError(f"cycle: must be >= 3, got {cycle}")
    if t_max < 1:
        raise ConfigError(f"t_max: must be >= 1, got {t_max}")
    u = step_operator(cycle, coin, "exact")
    strict = find_period_power(u, t_max)
    loose = find_period_power(u, t_max, phase_insensitive=True)
    eigen = find_period_eigen(u, t_max, phase_insensitive=True)
    if eigen.period != loose.period:
        # The Frobenius residual of the power method lies between the largest
        # eigenvalue deviation and sqrt(dim) times it, and the two phase fits
        # differ, so near tol the finders may split.  Then the finder that
        # missed must pass at the other's period with tol widened by 2 sqrt(dim).
        first = min(p for p in (loose.period, eigen.period) if p is not None)
        missed = find_period_eigen if loose.period == first else find_period_power
        wide = 2 * math.sqrt(u.shape[0]) * DEFAULT_TOL
        if missed(u, first, tol=wide, phase_insensitive=True).period != first:
            raise ArithmeticError(
                f"period finders disagree: power {loose.period} vs eigen {eigen.period}"
            )
    lines = ["mode,period,residual,t_max"]
    for mode, res in (("strict", strict), ("phase_insensitive", loose)):
        period = res.period if res.period is not None else ""
        lines.append(f"{mode},{period},{res.residual!r},{res.bound}")
    return strict, loose, "\n".join(lines) + "\n"


def run_depth_report(
    cycle: int,
    pattern: str,
    t_max: int = 25,
    opt_level: OptLevel | int | str = "logical",
) -> str:
    """CSV of circuit size vs steps: t, logical_depth, native_depth, count_1q, count_2q.

    ``opt_level`` "logical" reports the untranspiled circuit in the native
    columns as well; otherwise the circuit is transpiled at that level.
    """
    cfg = ExperimentConfig(cycle=cycle, pattern=pattern, t_max=t_max)
    sched = cfg.schedule()
    lines = ["t,logical_depth,native_depth,count_1q,count_2q"]
    for t in range(1, t_max + 1):
        circuit = build_walk_circuit(cycle, sched, t)
        logical = depth_report(circuit)
        if opt_level == "logical":
            native = logical
        else:
            native = depth_report(transpile(circuit, OptLevel(int(opt_level))))
        lines.append(
            f"{t},{logical.depth},{native.depth},{native.counts_1q},{native.counts_2q}"
        )
    return "\n".join(lines) + "\n"


def dump_circuit(cfg: ExperimentConfig, steps: int, native: bool = False) -> str:
    """Text-format dump of the configured walk circuit at the given step count."""
    if steps < 0:
        raise ConfigError(f"t: must be >= 0, got {steps}")
    circuit = build_walk_circuit(cfg.cycle, cfg.schedule(), steps)
    if native:
        circuit = transpile(circuit, cfg.opt_level)
    return to_text(circuit)
