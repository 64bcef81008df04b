"""Span and counter tracing around the calls into each cyclewalk layer.

Tracing is installed from the benchmark's own files: each probe replaces a
function at the module attribute its caller looks it up by (for example
``cyclewalk.experiments.run_noisy``, which ``run_experiment`` calls) with a
wrapper that opens a span, counts work and restores the original on
uninstall.  The program itself is not edited, and untimed or untraced jobs
run with no wrapper installed.

Spans nest on a stack.  Closing a span adds its duration to its parent's
child time, so a span's self time is its duration minus what its children
cover; the self times of one job sum to the job span.  Spans are aggregated
as they close instead of being kept one by one, because a traced bundle
opens tens of thousands of them.  The counting a probe does runs in a span
of the ``trace`` pseudo-layer, so that it shows as tracing cost and not as
the caller's self time.

Each traced job is self-checked (``Tracer.check_job``).  Besides span
nesting, the check flags a probe the workload must hit that fired zero
times: its caller no longer looks the function up at that name, and the
layer's time and counts would otherwise read 0 without notice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import defaultdict

from cyclewalk.circuit import depth_report

LAYERS = (
    "walk", "period", "gates", "circuit", "builders", "synthesis",
    "transpile", "noise", "simulate", "metrics", "experiments", "cli",
)
_now = time.perf_counter


class _Frame:
    __slots__ = ("layer", "key", "start", "child", "last_child_end")

    def __init__(self, layer: str, key: str | None, start: float):
        self.layer = layer
        self.key = key
        self.start = start
        self.child = 0.0
        self.last_child_end = start


class Tracer:
    """Per-job span aggregates and counters.

    ``self_s[layer]`` is the layer's self time; ``incl_s[key]`` the total
    (inclusive) time of spans opened under ``key``; ``self_by_key[key]``
    their self time; ``counts`` work counters; ``errors[layer]`` exceptions
    that crossed a probe of the layer; ``fired[probe]`` calls per probe.
    ``distinct`` holds the keys used for the distinct/total ratios.
    """

    def __init__(self) -> None:
        self.reset()
        self.violations: list[str] = []

    def reset(self) -> None:
        self.stack: list[_Frame] = []
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.self_by_key = defaultdict(float)
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)
        self.fired = defaultdict(int)
        self.distinct = defaultdict(set)
        self.job_s = 0.0

    def open(self, layer: str, key: str | None = None) -> _Frame:
        frame = _Frame(layer, key, _now())
        self.stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        end = _now()
        top = self.stack.pop()
        if top is not frame:
            self.violations.append(f"span {frame.key} closed out of order")
        dur = end - frame.start
        if frame.last_child_end > end or frame.child > dur:
            self.violations.append(f"a child of {frame.layer}:{frame.key} ends outside it")
        own = dur - frame.child
        self.self_s[frame.layer] += own
        if frame.key is not None:
            self.incl_s[frame.key] += dur
            self.self_by_key[frame.key] += own
        if self.stack:
            parent = self.stack[-1]
            if frame.start < parent.start:
                self.violations.append(f"span {frame.key} starts before its parent")
            parent.child += dur
            parent.last_child_end = end
        else:
            self.job_s = dur

    def check_job(self, expected: tuple[str, ...]) -> None:
        """Self-check of a finished job.

        The layer self times must sum to the job span, every probe in
        ``expected`` must have fired, and tied counts must agree: every gate
        ``run_noisy`` applies is a native gate from ``transpile`` or a gate
        ``insert_dd`` added.
        """
        total = sum(self.self_s.values())
        if self.stack:
            self.violations.append(f"{len(self.stack)} spans left open after the job")
        if not abs(total - self.job_s) <= 1e-6 * max(1.0, self.job_s):
            self.violations.append(
                f"layer self times sum to {total!r} s, job span is {self.job_s!r} s"
            )
        for probe in expected:
            if not self.fired.get(probe):
                self.violations.append(
                    f"probe {probe} fired 0 times: its caller no longer looks the "
                    "function up at that name, so tracing.py must probe the new one"
                )
        c = self.counts
        if self.fired.get("cyclewalk.experiments.run_noisy"):
            produced = c["transpile.native_1q"] + c["transpile.native_2q"] + c["transpile.dd_gates"]
            if c["simulate.gate_events"] != produced:
                self.violations.append(
                    f"run_noisy applied {c['simulate.gate_events']} gates; transpile "
                    f"and insert_dd produced {produced}"
                )
            if c["simulate.gate_events_2q"] != c["transpile.native_2q"]:
                self.violations.append(
                    f"run_noisy applied {c['simulate.gate_events_2q']} two-qubit gates; "
                    f"transpile produced {c['transpile.native_2q']}"
                )


# ---------------------------------------------------------------------------
# probes: what each wrapper counts after its call returns

def _kraus_key(name):
    def count(tr: Tracer, args, kwargs, result) -> None:
        tr.counts["noise.kraus_builds"] += 1
        tr.distinct["noise.kraus"].add((name, *args, *sorted(kwargs.items())))
    return count


def _count_matrix(tr: Tracer, args, kwargs, result) -> None:
    gate = args[0]
    tr.counts["gates.matrix_calls"] += 1
    payload = gate.matrix.tobytes() if gate.matrix is not None else None
    tr.distinct["gates.matrix"].add((gate.kind, gate.params, payload))


def _count_built(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["builders.logical_gates"] += sum(g.kind != "BARRIER" for g in result.gates)


def _count_native(tr: Tracer, args, kwargs, result) -> None:
    report = depth_report(result)
    tr.counts["transpile.native_1q"] += report.counts_1q
    tr.counts["transpile.native_2q"] += report.counts_2q
    tr.counts["transpile.native_depth"] += report.depth


def _count_dd(tr: Tracer, args, kwargs, result) -> None:
    sc, nm = args[0], args[1]
    min_window = kwargs.get("min_window") or 4.0 * nm.dur_1q
    for _, t0, t1 in sc.idle_windows:
        tr.counts["transpile.idle_time"] += t1 - t0
        if t1 - t0 >= min_window - 1e-12:
            tr.counts["transpile.dd_covered_time"] += t1 - t0
    # every XY4 pulse (X, or Y as RZ X RZ) carries exactly one X gate
    x_before = sum(g.kind == "X" for g in sc.circuit.gates)
    tr.counts["transpile.dd_pulses"] += sum(g.kind == "X" for g in result.circuit.gates) - x_before
    tr.counts["transpile.dd_gates"] += (
        sum(g.kind != "BARRIER" for g in result.circuit.gates)
        - sum(g.kind != "BARRIER" for g in sc.circuit.gates)
    )


def _count_events(tr: Tracer, args, kwargs, result) -> None:
    sc, nm = args[0], args[2]
    circuit = getattr(sc, "circuit", sc)
    for g in circuit.gates:
        if g.kind != "BARRIER":
            tr.counts["simulate.gate_events"] += 1
            tr.counts["simulate.gate_events_2q"] += g.n_qubits == 2
    windows = getattr(sc, "idle_windows", ())
    tr.counts["simulate.idle_events"] += sum(
        t1 - t0 >= nm.dur_idle_unit - 1e-12 for _, t0, t1 in windows
    )


def _count_calls(name):
    def count(tr: Tracer, args, kwargs, result) -> None:
        tr.counts[name] += 1
    return count


def _count_evolve(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["walk.evolve_steps"] += len(result)


def _iterations(name):
    def count(tr: Tracer, args, kwargs, result) -> None:
        tr.counts[name] += result.period if result.period is not None else result.bound
    return count


# Counter-only probes (no span): the density-matrix kernel inside run_noisy.

def _kraus_applications(tr: Tracer, args, kwargs) -> None:
    tr.counts["simulate.kraus_applications"] += len(args[1])


def _matrix_rows_flops(tr: Tracer, args, kwargs) -> None:
    # a 2**k matrix applied to the rows of a (dim, dim) array: 2**k complex
    # multiply-adds per output element, 8 real flops each; the array is read
    # once and written once, 16 bytes per complex element each way
    rho_like, m = args[0], args[1]
    tr.counts["simulate.flops_computed"] += 8 * m.shape[0] * rho_like.size
    tr.counts["simulate.bytes_computed"] += 32 * rho_like.size


# ``cyclewalk.transpile`` as an attribute is the function the package
# re-exports, so the modules are looked up by their full names.
_mod = importlib.import_module
cli, circuit, experiments, period, simulate, transpile, walk = (
    _mod(f"cyclewalk.{name}")
    for name in ("cli", "circuit", "experiments", "period", "simulate", "transpile", "walk")
)

_synthesis_calls = _count_calls("synthesis.calls")

# (module, attribute, layer, span key, count-after-return)
SPAN_PROBES = (
    (cli, "config_from_text", "experiments", "experiments.config", None),
    (cli, "run_experiment", "experiments", "experiments.run", None),
    (experiments, "build_walk_circuit_4cycle", "builders", "builders.build", _count_built),
    (experiments, "build_walk_circuit_3cycle", "builders", "builders.build", _count_built),
    (experiments, "build_walk_circuit_even", "builders", "builders.build", _count_built),
    (experiments, "run_exact", "simulate", "simulate.run_exact", None),
    (experiments, "measure_positions", "simulate", "simulate.measure", None),
    (experiments, "hellinger_fidelity", "metrics", "metrics.hellinger", None),
    (experiments, "transpile", "transpile", "transpile.transpile", _count_native),
    (experiments, "schedule", "transpile", "transpile.schedule", None),
    (experiments, "insert_dd", "transpile", "transpile.insert_dd", _count_dd),
    (experiments, "run_noisy", "simulate", "simulate.run_noisy", _count_events),
    (experiments, "readout_distribution", "simulate", "simulate.readout", None),
    (transpile, "lower_to_unitary", "circuit", "transpile.verify", _count_calls("circuit.lower_calls")),
    (transpile, "qsd_stream", "synthesis", "synthesis.synth", _synthesis_calls),
    (transpile, "kak_stream", "synthesis", "synthesis.synth", _synthesis_calls),
    (transpile, "cp_stream", "synthesis", "synthesis.synth", _synthesis_calls),
    (transpile, "stream_to_gates", "synthesis", "synthesis.synth", _synthesis_calls),
    (transpile, "_emit_matrix", "synthesis", "synthesis.synth", _synthesis_calls),
    (circuit, "gate_matrix", "gates", "gates.matrix", _count_matrix),
    (simulate, "gate_matrix", "gates", "gates.matrix", _count_matrix),
    (transpile, "gate_matrix", "gates", "gates.matrix", _count_matrix),
    (simulate, "depolarizing_kraus", "noise", "noise.kraus",
     _kraus_key("depolarizing")),
    (simulate, "thermal_relaxation_kraus", "noise", "noise.kraus",
     _kraus_key("relaxation")),
    (walk, "step_operator", "walk", "walk.step_operator", None),
    (walk, "evolve", "walk", "walk.evolve", _count_evolve),
    (period, "find_period_power", "period", "period.power",
     _iterations("period.power_iters")),
    (period, "find_period_eigen", "period", "period.eigen",
     _iterations("period.eigen_iters")),
)

COUNTER_PROBES = (
    (simulate, "_apply_kraus", _kraus_applications),
    (simulate, "_apply_matrix_rows", _matrix_rows_flops),
)


def _probe_id(module, attr: str) -> str:
    return f"{module.__name__}.{attr}"


def _span_wrapper(tr: Tracer, fn, probe: str, layer: str, key: str, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.fired[probe] += 1
        frame = tr.open(layer, key)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tr.errors[layer] += 1
            raise
        finally:
            tr.close(frame)
        if after is not None:
            counting = tr.open("trace")
            try:
                after(tr, args, kwargs, result)
            finally:
                tr.close(counting)
        return result
    return wrapper


def _counter_wrapper(tr: Tracer, fn, probe: str, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counting = tr.open("trace")
        try:
            tr.fired[probe] += 1
            count(tr, args, kwargs)
        finally:
            tr.close(counting)
        return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def installed(tr: Tracer):
    """Probes in place for the duration of one traced job."""
    saved: list[tuple[object, str, object]] = []
    try:
        for module, attr, layer, key, after in SPAN_PROBES:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, _span_wrapper(tr, fn, _probe_id(module, attr), layer, key, after))
        for module, attr, count in COUNTER_PROBES:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, _counter_wrapper(tr, fn, _probe_id(module, attr), count))
        yield tr
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# per-job snapshot -> per-layer metrics

TIME_METRICS = {
    # metric: (source, key) with source "self" = layer self time,
    # "key_self" / "incl" = self / inclusive time of spans under a key
    "simulate.run_noisy_s": ("key_self", "simulate.run_noisy"),
    "simulate.run_exact_s": ("incl", "simulate.run_exact"),
    "simulate.measure_s": ("incl", "simulate.measure"),
    "simulate.readout_s": ("incl", "simulate.readout"),
    "noise.kraus_build_s": ("incl", "noise.kraus"),
    "gates.matrix_s": ("incl", "gates.matrix"),
    "transpile.transpile_s": ("key_self", "transpile.transpile"),
    "transpile.verify_s": ("incl", "transpile.verify"),
    "transpile.schedule_s": ("incl", "transpile.schedule"),
    "transpile.insert_dd_s": ("incl", "transpile.insert_dd"),
    "synthesis.synth_s": ("self", "synthesis"),
    "builders.build_s": ("incl", "builders.build"),
    "circuit.lower_s": ("self", "circuit"),
    "metrics.hellinger_s": ("incl", "metrics.hellinger"),
    "experiments.self_s": ("self", "experiments"),
    "cli.self_s": ("self", "cli"),
    "walk.step_operator_s": ("incl", "walk.step_operator"),
    "walk.evolve_s": ("incl", "walk.evolve"),
    "period.power_s": ("incl", "period.power"),
    "period.eigen_s": ("incl", "period.eigen"),
    "trace.probe_s": ("self", "trace"),
}
COUNT_METRICS = (
    "simulate.gate_events", "simulate.gate_events_2q", "simulate.idle_events",
    "simulate.kraus_applications", "simulate.flops_computed", "simulate.bytes_computed",
    "noise.kraus_builds", "gates.matrix_calls",
    "transpile.native_1q", "transpile.native_2q", "transpile.native_depth",
    "transpile.dd_pulses", "builders.logical_gates", "circuit.lower_calls",
    "synthesis.calls", "walk.evolve_steps", "period.power_iters", "period.eigen_iters",
)
ERROR_METRICS = tuple(f"{layer}.errors" for layer in LAYERS)
RATIO_METRICS = (
    "noise.kraus_distinct_ratio", "gates.matrix_distinct_ratio",
    "transpile.dd_idle_covered_ratio",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def snapshot(tr: Tracer) -> dict[str, float]:
    """Every per-layer metric of the job just traced."""
    out: dict[str, float] = {}
    tables = {"self": tr.self_s, "key_self": tr.self_by_key, "incl": tr.incl_s}
    for name, (source, key) in TIME_METRICS.items():
        out[name] = tables[source].get(key, 0.0)
    for name in COUNT_METRICS:
        out[name] = tr.counts.get(name, 0)
    c = tr.counts
    out["noise.kraus_distinct_ratio"] = _ratio(len(tr.distinct["noise.kraus"]), c["noise.kraus_builds"])
    out["gates.matrix_distinct_ratio"] = _ratio(len(tr.distinct["gates.matrix"]), c["gates.matrix_calls"])
    out["transpile.dd_idle_covered_ratio"] = _ratio(
        c.get("transpile.dd_covered_time", 0.0), c.get("transpile.idle_time", 0.0)
    )
    return out


def error_counts(tr: Tracer) -> dict[str, int]:
    """``<layer>.errors`` of one traced job, failed or not."""
    return {name: tr.errors.get(layer, 0) for layer, name in zip(LAYERS, ERROR_METRICS)}


def aggregate(jobs: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each time over traced jobs; counts and ratios must repeat.

    Returns the metrics and the names of counts that differed between jobs.
    """
    out: dict[str, float] = {}
    unstable = []
    for name in jobs[0]:
        values = [job[name] for job in jobs]
        if name in TIME_METRICS:
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(name)
    return out, unstable
