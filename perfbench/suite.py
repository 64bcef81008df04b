"""Collect repeated benchmark runs, summarise them and compare two result sets.

Run from the root of a checkout:

    # 10 untraced runs (seeds 1..10) and 2 traced runs per workload
    python3 perfbench/suite.py collect --out .perfbench_results/here

    # parent against change, alternating which tree runs first in each pair
    python3 perfbench/suite.py collect --out .perfbench_results/ab \\
        --tree parent=../parent --tree change=.
    python3 perfbench/suite.py compare .perfbench_results/ab/parent .perfbench_results/ab/change

    python3 perfbench/suite.py summary .perfbench_results/here

``collect`` stores each workload's records as ``<out>/<label>/<workload>.json``
(``<out>`` itself when only one tree is given) and prints the summary.
``summary`` prints, per workload and end-to-end metric, the median,
quartiles and spread (quartile distance over median) against a third of the
metric's bound, the error rate, and whether the computed counts of the
traced runs repeat exactly.  ``compare`` applies the rule of
``perfbench/README.md`` (Compare mode) to every end-to-end metric and lists
the per-layer deltas of the traced runs beside it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9
# collect: untraced runs per workload with seeds FIRST_SEED.., then traced
# runs with FIRST_SEED; every run lasts BENCHMARK.json's run_seconds
RUNS = 10
TRACED_RUNS = 2
FIRST_SEED = 1


def load_spec() -> tuple[dict, dict, dict]:
    """BENCHMARK.json, its end-to-end metrics and its per-layer metrics by name."""
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    return (spec, {m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int, record: Path) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--record", str(record.resolve())]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(record.read_text())
    record.unlink()
    return result


def collect(args) -> int:
    spec, bounds, _ = load_spec()
    trees = [t.split("=", 1) if "=" in t else ["here", t] for t in args.tree or ["."]]
    out = Path(args.out)
    dirs = {label: out / label if len(trees) > 1 else out for label, _ in trees}
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    data = {label: {w: {"untraced": [], "traced": []} for w in names} for label, _ in trees}
    tmp = out / "record.tmp.json"
    for workload in names:
        plan = [(i, 0) for i in range(RUNS)] + [(i, 1) for i in range(TRACED_RUNS)]
        for i, trace in plan:
            order = trees if i % 2 == 0 else trees[::-1]
            seed = FIRST_SEED + (i if not trace else 0)
            for label, tree in order:
                res = run_once(Path(tree), workload, seed, seconds, trace, tmp)
                data[label][workload]["traced" if trace else "untraced"].append(res)
                shown = {k: round(v["value"], 4) for k, v in res["metrics"].items()
                         if k in bounds}
                print(f"{label} {workload} seed={seed} trace={trace} correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {shown}", file=sys.stderr)
            for label, _ in trees:
                (dirs[label] / f"{workload}.json").write_text(
                    json.dumps(data[label][workload], indent=1) + "\n")
    for label, _ in trees:
        print(f"== {label}")
        summary_of(dirs[label])
    return 0


def load(directory: Path) -> dict[str, dict]:
    return {p.stem: json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))}


def metric_values(runs: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def counts_repeat(traced: list[dict], layer_spec: dict) -> list[str]:
    """Names of count metrics that differ between traced runs."""
    if len(traced) < 2:
        return []
    counted = [n for n, m in layer_spec.items() if m["unit"] != "s"]
    return [n for n in counted
            if len({r["metrics"][n]["value"] for r in traced if n in r["metrics"]}) > 1]


def summary_of(directory: Path) -> None:
    _, bounds, layer_spec = load_spec()
    for workload, data in load(directory).items():
        runs = data["untraced"]
        if not runs:
            continue
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        env = runs[0]["env"]
        print(f"{workload}: {len(runs)} runs, jobs per run "
              f"{sorted({r['env']['jobs_per_run'] for r in runs})}, "
              f"error_rate = {failed / attempted!r} ({failed} of {attempted} jobs), "
              f"all correct: {all(r['correct'] for r in runs)}")
        print(f"  env: python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
              f"nproc {env['nproc']} cpu {env['cpu_model']!r}")
        for name, spec in bounds.items():
            values = metric_values(runs, name)
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            ok = "ok" if spread < spec["bound"] / 3 else "WIDE"
            print(f"  {name:12s} median {med:.6g} {spec['unit']}  quartiles [{q1:.6g}, {q3:.6g}]"
                  f"  spread {spread:.4f} (bound/3 = {spec['bound'] / 3:.4f}) {ok}")
        traced = data["traced"]
        if traced:
            unstable = counts_repeat(traced, layer_spec)
            overhead = [r["metrics"]["trace.overhead_s"]["value"] for r in traced]
            print(f"  traced runs: {len(traced)}, all correct: "
                  f"{all(r['correct'] for r in traced)}, counts repeat exactly: "
                  f"{'yes' if not unstable else 'NO ' + ', '.join(unstable)}, "
                  f"trace.overhead_s {[round(v, 4) for v in overhead]}")


def summary(args) -> int:
    summary_of(Path(args.results))
    return 0


def verdict(base: list[float], change: list[float], spec: dict) -> tuple[str, str]:
    """better / worse / unresolved for paired runs, and whether the change's
    median stays within the metric's bound of the base median."""
    lower = spec["better"] == "lower"
    n = min(len(base), len(change))
    pairs = list(zip(base, change))[:n]
    wins = sum((c < b) if lower else (c > b) for b, c in pairs)
    losses = sum((c > b) if lower else (c < b) for b, c in pairs)
    q1, mb, q3 = quartiles(base)
    mc = statistics.median(change)
    worse_by = (mc - mb) / mb if lower else (mb - mc) / mb
    within = "yes" if worse_by <= spec["bound"] else "NO"
    differ = abs(mc - mb) > (q3 - q1)
    if n < MIN_PAIRS:
        return f"unresolved ({n} pairs < {MIN_PAIRS})", within
    if wins >= WIN_SHARE * n and differ:
        return f"better ({wins}/{n} pairs)", within
    if within == "NO" or (losses >= WIN_SHARE * n and differ):
        return f"worse ({losses}/{n} pairs lost)", within
    return f"unresolved ({wins} won, {losses} lost of {n})", within


def compare(args) -> int:
    _, bounds, layer_spec = load_spec()
    base, change = load(Path(args.base)), load(Path(args.change))
    for workload in base:
        if workload not in change:
            continue
        print(f"== {workload}")
        b_runs, c_runs = base[workload]["untraced"], change[workload]["untraced"]
        for name, spec in bounds.items():
            b, c = metric_values(b_runs, name), metric_values(c_runs, name)
            if not b or not c:
                continue
            bq, cq = quartiles(b), quartiles(c)
            word, within = verdict(b, c, spec)
            print(f"  {name:12s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  change {cq[1]:.6g} "
                  f"[{cq[0]:.6g}, {cq[2]:.6g}] {spec['unit']}  {word}; within bound "
                  f"{spec['bound']}: {within}")
        b_tr, c_tr = base[workload]["traced"], change[workload]["traced"]
        if not b_tr or not c_tr:
            continue
        print("  per-layer (median of traced runs): base -> change")
        for name, spec in layer_spec.items():
            b, c = metric_values(b_tr, name), metric_values(c_tr, name)
            if not b or not c:
                continue
            mb, mc = statistics.median(b), statistics.median(c)
            if mb == mc == 0:
                continue
            rel = f" ({(mc - mb) / mb:+.1%})" if mb else ""
            print(f"    {name:34s} {mb:.6g} -> {mc:.6g} {spec['unit']}{rel}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    col = sub.add_parser("collect", help="run the benchmark repeatedly and store the results")
    col.add_argument("--out", required=True, help="directory for the result set(s)")
    col.add_argument("--tree", action="append",
                     help="LABEL=PATH of a checkout to run (repeat to alternate two trees)")
    col.add_argument("--workload", action="append", help="workload (default: all)")
    col.set_defaults(func=collect)
    summ = sub.add_parser("summary", help="summarise one result set")
    summ.add_argument("results")
    summ.set_defaults(func=summary)
    cmp_ = sub.add_parser("compare", help="compare two result sets run by run")
    cmp_.add_argument("base")
    cmp_.add_argument("change")
    cmp_.set_defaults(func=compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
