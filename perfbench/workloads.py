"""Workload definitions, job runners and correctness checks.

A job is one unit of work the timed loop repeats back to back:

* a bundle workload runs one ``cyclewalk run`` through
  ``cyclewalk.cli.main(["run", ...])`` into a fresh temporary ``--out``
  directory, then checks the written CSVs against ``reference.json``;
* ``coin-search`` runs one batch of the research loop that found the
  paper's coin pairs (dense walk and period finders only, no circuits).

``cyclewalk`` must be importable before this module is imported; ``run.py``
puts the checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cyclewalk import cli, period, walk
from cyclewalk.walk import CoinParams

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# The bundle seed passed through ``--seed`` is drawn from this pool, so that
# every seed the benchmark is given has recorded sampled columns.
BUNDLE_SEED_POOL = 16

# Absolute tolerance on every floating-point column computed from the
# amplitudes (exact and noisy probability, both fidelity columns).  The
# sampled probability column is integer counts / shots and must match
# exactly.
FLOAT_TOL = 1e-9

# The paper's revival: P(0) >= REVIVAL_MIN at t = 20 on the 3- and 4-cycles;
# the same threshold marks a revival in the coin search.
REVIVAL_T = 20
REVIVAL_MIN = 1.0 - 1e-6


@dataclass(frozen=True)
class Bundle:
    name: str
    config: str  # relative to the checkout root
    paper_revival: bool  # check exact P(0) at t = 20


BUNDLES = {
    b.name: b
    for b in (
        Bundle("parrondo-4cycle", "demos/configs/parrondo_4cycle.cfg", True),
        Bundle("parrondo-3cycle-dd", "demos/configs/parrondo_3cycle_dd.cfg", True),
        Bundle("hadamard-8cycle-dd", "perfbench/configs/hadamard_8cycle_dd.cfg", False),
    )
}
COIN_SEARCH = "coin-search"
WORKLOADS = (*BUNDLES, COIN_SEARCH)

# The probes of tracing.py (module.attribute) that every traced job of a
# workload fired when the benchmark was added.  A probe that fires zero
# times fails the run's trace self-check, because the layer it covers would
# then read 0 without notice.
_BUNDLE_PROBES = tuple(
    f"cyclewalk.{name}" for name in (
        "cli.config_from_text", "cli.run_experiment",
        "experiments.run_exact", "experiments.measure_positions",
        "experiments.hellinger_fidelity", "experiments.transpile",
        "experiments.schedule", "experiments.run_noisy",
        "experiments.readout_distribution", "transpile.lower_to_unitary",
        "transpile.stream_to_gates", "circuit.gate_matrix", "simulate.gate_matrix",
        "simulate.thermal_relaxation_kraus", "simulate._apply_kraus",
        "simulate._apply_matrix_rows",
    )
)
_L1_DD_PROBES = tuple(
    f"cyclewalk.{name}" for name in (
        "experiments.insert_dd", "transpile.cp_stream", "transpile._emit_matrix",
        "transpile.gate_matrix",
    )
)
EXPECTED_PROBES = {
    "parrondo-4cycle": _BUNDLE_PROBES + (
        "cyclewalk.experiments.build_walk_circuit_4cycle",
        "cyclewalk.transpile.qsd_stream", "cyclewalk.simulate.depolarizing_kraus",
    ),
    "parrondo-3cycle-dd": _BUNDLE_PROBES + _L1_DD_PROBES + (
        "cyclewalk.experiments.build_walk_circuit_3cycle",
    ),
    "hadamard-8cycle-dd": _BUNDLE_PROBES + _L1_DD_PROBES + (
        "cyclewalk.experiments.build_walk_circuit_even",
        "cyclewalk.simulate.depolarizing_kraus",
    ),
    COIN_SEARCH: (
        "cyclewalk.walk.step_operator", "cyclewalk.walk.evolve",
        "cyclewalk.period.find_period_power", "cyclewalk.period.find_period_eigen",
    ),
}


def bundle_seed(seed: int) -> int:
    return seed % BUNDLE_SEED_POOL


# ---------------------------------------------------------------------------
# bundles

def run_bundle(root: Path, bundle: Bundle, seed: int, scratch: Path) -> int:
    """One ``cyclewalk run`` into ``scratch``; returns the CLI exit code."""
    argv = [
        "run",
        "--config", str(root / bundle.config),
        "--seed", str(bundle_seed(seed)),
        "--out", str(scratch),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def read_columns(path: Path) -> dict[str, list[str]]:
    """CSV columns as raw strings, keyed by header; '#' lines skipped."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def read_bundle(out: Path) -> dict[str, list[str]]:
    """The bundle's columns: probability ``p_*`` and fidelity ``f_*``."""
    prob = read_columns(out / "probability.csv")
    fid = read_columns(out / "fidelity.csv")
    cols = {"t": prob.pop("t")}
    fid.pop("t")
    cols.update({f"p_{k}": v for k, v in prob.items()})
    cols.update({f"f_{k}": v for k, v in fid.items()})
    return cols


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def check_bundle(bundle: Bundle, seed: int, cols: dict[str, list[str]], ref: dict) -> list[str]:
    """Compare one bundle's columns with the recorded reference.

    Returns the list of problems found (empty when the job is correct).
    """
    problems: list[str] = []
    want = ref[bundle.name]
    if cols["t"] != [str(t) for t in range(1, want["t_max"] + 1)]:
        return [f"t column is {cols['t'][:3]}..., expected 1..{want['t_max']}"]
    expected = dict(want["columns"])
    expected.update(want["sampled"][str(bundle_seed(seed))])
    if sorted(cols) != sorted(["t", *expected]):
        return [f"columns {sorted(cols)} differ from reference {sorted(expected)}"]
    for name, ref_col in expected.items():
        got = [float(x) for x in cols[name]]
        if name == "p_sampled":
            if got != ref_col:
                problems.append(f"{name} differs from reference")
            continue
        worst = max(abs(a - b) if math.isfinite(a) else math.inf for a, b in zip(got, ref_col))
        if not worst <= FLOAT_TOL:
            problems.append(f"{name} deviates from reference by {worst:.3e}")
    if bundle.paper_revival:
        p20 = float(cols["p_exact"][REVIVAL_T - 1])
        if not p20 >= REVIVAL_MIN:
            problems.append(f"exact P(0) at t={REVIVAL_T} is {p20!r} < {REVIVAL_MIN}")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


@contextlib.contextmanager
def scratch_dir(root: Path):
    """A temporary ``--out`` directory inside the checkout, removed on exit."""
    base = root / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()  # only when no other job's directory is left


# ---------------------------------------------------------------------------
# coin search

# Pairs with known results, recorded from the program when the benchmark
# was added: (cycle, coin A, coin B, first AABB revival, (period A, period B)).
# The paper's pairs revive at t = 20 while neither coin alone has a period
# <= PERIOD_T_MAX.  The periodic pairs give the period finders a period to
# agree on, since the random pairs almost never have one.
SENTINELS = (
    (4, CoinParams(0.998489), CoinParams(0.119545), 20, (None, None)),
    (3, CoinParams(0.264734), CoinParams(0.801571), 20, (None, None)),
    (4, CoinParams(0.25), CoinParams(0.75), 8, (12, 6)),
    (3, CoinParams(1.0), CoinParams(0.0), 5, (6, 2)),
)
PAIRS_PER_CYCLE = 6
EVOLVE_STEPS = 100
PERIOD_T_MAX = 1000


def coin_batch(seed: int) -> list[tuple[int, CoinParams, CoinParams]]:
    """Seeded random coin pairs on the 3- and 4-cycles, then the sentinels."""
    rng = np.random.default_rng(seed)
    pairs = []
    for cycle in (3, 4):
        for _ in range(PAIRS_PER_CYCLE):
            r = rng.uniform(0.02, 0.98, size=2)
            ab = rng.uniform(0.0, math.pi, size=(2, 2))
            pairs.append(
                (cycle, CoinParams(r[0], *ab[0]), CoinParams(r[1], *ab[1]))
            )
    return pairs + [(cycle, a, b) for cycle, a, b, _, _ in SENTINELS]


def classify_pair(cycle: int, a: CoinParams, b: CoinParams) -> tuple:
    """One result row: first AABB revival and each coin's period.

    Raises ArithmeticError when the two period finders disagree.
    """
    coins = {"A": a, "B": b}
    periods = []
    for coin in (a, b):
        u = walk.step_operator(cycle, coin)
        power = period.find_period_power(u, t_max=PERIOD_T_MAX, phase_insensitive=True)
        eigen = period.find_period_eigen(u, t_max=PERIOD_T_MAX, phase_insensitive=True)
        if power.period != eigen.period:
            raise ArithmeticError(
                f"period finders disagree on cycle {cycle} coin {coin}: "
                f"power {power.period}, eigen {eigen.period}"
            )
        periods.append(power.period)
    schedule = walk.parrondo_schedule("AABB", coins, EVOLVE_STEPS)
    trajectory = walk.evolve(walk.initial_state(0.0, 0.0, cycle), schedule, cycle)
    revival = next(
        (t for t, state in enumerate(trajectory, 1)
         if walk.return_probability(state, cycle) >= REVIVAL_MIN),
        None,
    )
    if revival is not None and periods == [None, None]:
        kind = "order-from-chaos"
    elif revival is None:
        kind = "no-revival"
    else:
        kind = "periodic-coin"
    return (cycle, a, b, revival, periods[0], periods[1], kind)


def run_coin_search(batch) -> list[tuple]:
    return [classify_pair(*pair) for pair in batch]


def check_coin_search(rows: list[tuple]) -> list[str]:
    """The sentinel rows must match their recorded revival and periods."""
    problems = []
    for row, (cycle, _, _, revival, periods) in zip(rows[-len(SENTINELS):], SENTINELS):
        if (row[3], row[4:6]) != (revival, periods):
            problems.append(
                f"sentinel on cycle {cycle}: revival {row[3]} and periods {row[4:6]}, "
                f"expected {revival} and {periods}"
            )
    return problems
