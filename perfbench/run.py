"""cyclewalk benchmark: run one workload for a fixed time and report metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload parrondo-4cycle --seed 1 --seconds 40 --trace 0

Jobs run back to back in this one process (a closed loop with one client)
until ``--seconds`` have passed; each job's output is checked against the
recorded reference.  With ``--trace 0`` the last line of standard output is
a JSON object holding every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` untraced and traced jobs alternate and it holds every
per-layer metric instead.  The lines before it give the same numbers for a
reader, and the run's environment.  ``--record PATH`` also writes the whole
result, per-job times included, to PATH.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

ROOT = Path.cwd()
SETUP_REPEATS = 10

# A fresh interpreter imports cyclewalk and parses the configs named on its
# command line; the parent times it from spawn to exit.
SETUP_CODE = """\
import pathlib, sys
sys.path.insert(0, "src")
import cyclewalk
from cyclewalk.experiments import config_from_text
for path in sys.argv[1:]:
    config_from_text(pathlib.Path(path).read_text())
"""

_now = time.perf_counter

# The host's speed changes by a factor of up to 2.5, for less than a second
# to minutes, with no steal time: the CPU itself runs slower, and one job can
# pass through several levels.  So untraced runs scale each job by the speed
# a SpeedMeter samples during it.  REFERENCE_STEP_S is the median sampled
# step time of parrondo-4cycle jobs on the 2-vCPU Xeon where the benchmark
# was written, so scaled times read as seconds on that machine at its usual
# speed.
METER_INTERVAL_S = 0.1
METER_STEPS = 200
REFERENCE_STEP_S = 2.1e-5


class SpeedMeter:
    """Samples the host's speed while a run times its jobs.

    ``sample()`` times METER_STEPS steps of a fixed loop (8x8 complex
    products and interpreter work, the mix a cyclewalk job runs) and keeps
    the time per step.  Inside ``with meter:`` a SIGALRM timer also samples
    every METER_INTERVAL_S, wherever the main thread is.  ``clock()`` is
    wall time less the time spent sampling.
    """

    def __init__(self) -> None:
        rng = numpy.random.default_rng(0)
        self._m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self._rho = self._m @ self._m.conj().T
        self.steps: list[float] = []  # seconds per loop step, in the order taken
        self.spent = 0.0
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # a timer signal that arrived during a sample
            return
        self._busy = True
        m, rho = self._m, self._rho
        t0 = _now()
        for _ in range(METER_STEPS):
            rho = m @ rho @ m.conj().T
            rho /= numpy.trace(rho).real
            sum(j * j for j in range(60))
        dt = _now() - t0
        self.steps.append(dt / METER_STEPS)
        self.spent += dt
        self._busy = False

    def clock(self) -> float:
        return _now() - self.spent

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, METER_INTERVAL_S, METER_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> int:
        """Sample, and mark the start of a timed interval."""
        self.sample()
        return len(self.steps) - 1

    def scale(self, first: int) -> float:
        """Sample, and return the factor that brings the interval begun
        at ``first`` to the reference speed."""
        self.sample()
        return REFERENCE_STEP_S / statistics.fmean(self.steps[first:])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict[str, object]:
    """Thread count of every OpenBLAS loaded into this process, and the
    environment variables that set it.  Nothing here changes the setting."""
    import ctypes

    out: dict[str, object] = {
        var: os.environ.get(var)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    prefixes = [f"{p}_get_{{}}{s}" for p in ("scipy_openblas", "openblas") for s in ("64_", "")]
    for lib in libs:
        handle = ctypes.CDLL(lib)
        prefix = next((p for p in prefixes if hasattr(handle, p.format("num_threads"))), None)
        if prefix is None:
            continue
        config = getattr(handle, prefix.format("config"))
        config.restype = ctypes.c_char_p
        out[Path(lib).name] = {
            "threads": getattr(handle, prefix.format("num_threads"))(),
            "config": config().decode(),
        }
    return out


def environment(args, jobs: int, bundle_seed: int | None) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "bundle_seed": bundle_seed,
        "jobs_per_run": jobs,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(configs: list[str]) -> list[float]:
    """Wall times of SETUP_REPEATS fresh processes.

    They are not scaled by a SpeedMeter: spawn and import kept their time
    while the meter's loop ran 1.5 times faster or slower.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = _now()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *configs],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        times.append(_now() - t0)
    return times


def make_job(workloads, name: str, seed: int, clock=_now):
    """A callable ``job(tracer) -> (wall_s, rows, problems, bytes_written)``.

    The timed region is the call into cyclewalk alone; checking the output
    and removing the bundle directory come after it, timed by ``clock``.
    Under a tracer the timed call runs inside the job's root span.
    """
    def timed(tracer, root_layer, fn, *args):
        frame = tracer.open(root_layer) if tracer is not None else None
        t0 = clock()
        try:
            return fn(*args), clock() - t0
        finally:
            if frame is not None:
                tracer.close(frame)

    if name == workloads.COIN_SEARCH:
        batch = workloads.coin_batch(seed)
        first: list = []

        def coin_job(tracer):
            rows, wall = timed(tracer, "bench", workloads.run_coin_search, batch)
            problems = workloads.check_coin_search(rows)
            if not first:
                first.append(rows)
            elif rows != first[0]:
                problems.append("coin-search rows differ between jobs of one batch")
            return wall, len(rows), problems, 0

        return coin_job

    bundle = workloads.BUNDLES[name]
    reference = workloads.load_reference()

    def bundle_job(tracer):
        with workloads.scratch_dir(ROOT) as out:
            code, wall = timed(tracer, "cli", workloads.run_bundle, ROOT, bundle, seed, out)
            if code != 0:
                if tracer is not None:
                    tracer.errors["cli"] += 1
                return wall, 0, [f"cyclewalk run exited with code {code}"], 0
            cols = workloads.read_bundle(out)
            nbytes = workloads.bytes_written(out)
        problems = workloads.check_bundle(bundle, seed, cols, reference)
        return wall, len(cols["t"]), problems, nbytes

    return bundle_job


def run_loop(job, seconds: float, tracing, expected: tuple[str, ...],
             meter: SpeedMeter | None = None) -> tuple[list[dict], float, list[str]]:
    """Jobs back to back until ``seconds`` have passed.

    With ``tracing`` (the tracing module) even-numbered jobs run untraced
    and odd-numbered ones traced, and at least one of each runs; each
    traced job is self-checked, with ``expected`` the probes it must fire.
    A traced job's error counts are kept even when it fails.  With a
    ``meter`` (untraced runs) every job is timed by the meter's clock and its
    record gets the meter's ``scale``.  A record's ``span`` is its job with
    the check and clean-up after it.  Returns the job records, the elapsed
    wall time and the trace self-check violations.
    """
    tracer = tracing.Tracer() if tracing is not None else None
    clock = meter.clock if meter is not None else _now
    records: list[dict] = []
    start = _now()
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        rec: dict = {"traced": traced}
        first = meter.start() if meter is not None else 0
        t0 = clock()
        try:
            if traced:
                tracer.reset()
                try:
                    with tracing.installed(tracer):
                        wall, rows, problems, nbytes = job(tracer)
                finally:
                    rec["errors"] = tracing.error_counts(tracer)
                tracer.check_job(expected)
                rec["layers"] = tracing.snapshot(tracer)
                rec["layers"]["experiments.bytes_written"] = nbytes
            else:
                wall, rows, problems, nbytes = job(None)
            rec.update(wall=wall, rows=rows, problems=problems)
        except Exception as exc:  # noqa: BLE001 - a failed job is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            rec.update(wall=clock() - t0, rows=0, problems=[f"{type(exc).__name__}: {exc}"])
        rec["span"] = clock() - t0
        if meter is not None:
            rec["scale"] = meter.scale(first)
        if rec["problems"]:
            rec["rows"] = 0
            print(f"job {len(records)} failed: {'; '.join(rec['problems'])}", file=sys.stderr)
        records.append(rec)
        enough = len(records) >= (2 if tracer is not None else 1)
        if enough and _now() - start >= seconds:
            break
    violations = tracer.violations if tracer is not None else []
    return records, _now() - start, violations


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full result as JSON here")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cyclewalk" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a cyclewalk checkout root (src/cyclewalk and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import cyclewalk

    if Path(cyclewalk.__file__).resolve().parent != (ROOT / "src" / "cyclewalk").resolve():
        print(f"perfbench: imported cyclewalk from {cyclewalk.__file__}, "
              "not from this checkout", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    bundle = workloads.BUNDLES.get(args.workload)
    configs = [str(ROOT / bundle.config)] if bundle else []
    missing = [c for c in configs if not Path(c).is_file()]
    if missing:
        print(f"perfbench: missing workload config {missing[0]}", file=sys.stderr)
        return 2

    expected = workloads.EXPECTED_PROBES[args.workload]
    if args.trace:
        meter, setup = None, []
        job = make_job(workloads, args.workload, args.seed)
        records, elapsed, violations = run_loop(job, args.seconds, tracing, expected)
    else:
        setup = measure_setup(configs)
        meter = SpeedMeter()
        job = make_job(workloads, args.workload, args.seed, meter.clock)
        with meter:
            records, elapsed, violations = run_loop(job, args.seconds, None, expected, meter)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(records)
    failed = sum(bool(r["problems"]) for r in records)
    for v in violations[:5]:
        print(f"trace self-check failed: {v}", file=sys.stderr)
    untraced = [r["wall"] for r in records if not r["traced"] and not r["problems"]]
    env = environment(args, attempted, workloads.bundle_seed(args.seed) if bundle else None)

    unstable: list[str] = []
    if args.trace:
        traced = [r for r in records if r["traced"]]
        traced_ok = [r for r in traced if not r["problems"]]
        names = [m["name"] for m in spec["per_layer"]]
        if traced_ok and untraced:
            layers, unstable = tracing.aggregate([r["layers"] for r in traced_ok])
            layers["trace.overhead_s"] = (
                statistics.median(r["wall"] for r in traced_ok) - statistics.median(untraced)
            )
        else:
            layers = {}
        # a job whose error reached a probe fails, so errors count over every
        # traced job, not only the jobs the other metrics are taken from
        for name in tracing.ERROR_METRICS:
            layers[name] = sum(r["errors"][name] for r in traced)
        if unstable:
            print(f"counts differ between traced jobs: {unstable}", file=sys.stderr)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: layers.get(name, 0.0) for name in names}
        extra = sorted(set(layers) - set(names))
        if extra:
            print(f"perfbench: trace gives metrics not in BENCHMARK.json: {extra}", file=sys.stderr)
            return 2
        for name in names:
            print(f"{name} = {values[name]!r} {units[name]}")
    else:
        walls = [r["wall"] * r["scale"] for r in records]
        busy = sum(r["span"] * r["scale"] for r in records)
        rows = sum(r["rows"] for r in records)
        q1, p50, q3 = quartiles(walls)
        values = {
            "job_p50_s": p50,
            "rows_per_s": rows / busy,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        steps = meter.steps
        print(f"job_p50_s = {p50!r} s (median of {len(walls)} scaled jobs; quartiles "
              f"{q1:.4f}, {q3:.4f}; unscaled median {statistics.median(r['wall'] for r in records):.4f} s)")
        print(f"rows_per_s = {values['rows_per_s']!r} 1/s ({rows} rows in {busy:.3f} scaled s of "
              f"jobs; {rows / elapsed:.4f} unscaled over {elapsed:.3f} s, sampling included)")
        print(f"speed meter: {len(steps)} samples, step median {statistics.median(steps):.4g} s "
              f"[{min(steps):.4g}, {max(steps):.4g}], reference {REFERENCE_STEP_S} s; "
              f"{meter.spent:.3f} s of {elapsed:.3f} s spent sampling")
        print(f"setup_s = {values['setup_s']!r} s (median of {len(setup)} fresh processes)")
        print(f"peak_rss_mb = {peak_rss_mb!r} MB")
        if set(values) != set(units):
            print(f"perfbench: end-to-end metrics {sorted(values)} differ from "
                  f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
            return 2
    print(f"error_rate = {failed / max(attempted, 1)!r} ({failed} failed of {attempted} jobs)")
    print("env " + json.dumps(env, sort_keys=True))

    correct = failed == 0 and not violations and not unstable
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    if args.record:
        full = dict(result, env=env, setup_s=setup, elapsed_s=elapsed,
                    meter_steps=meter.steps if meter is not None else [],
                    jobs=[{k: v for k, v in r.items() if k != "layers"} for r in records])
        Path(args.record).write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
