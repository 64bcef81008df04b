"""Record the reference bundle columns that every benchmark job is checked against.

Runs each bundle workload once per bundle seed in the pool and writes
``perfbench/reference.json``: the seed-independent columns (exact and noisy
probability, noisy fidelity) once per workload, and the sampled columns
(probability and fidelity) per bundle seed.  Run it from the checkout root:

    python3 perfbench/make_reference.py

Regenerate only when a change is meant to alter the program's output, and
say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src/ on the path first)

SEED_COLUMNS = ("p_sampled", "f_sampled")


def record(bundle: workloads.Bundle) -> dict:
    entry: dict = {"sampled": {}}
    for seed in range(workloads.BUNDLE_SEED_POOL):
        with workloads.scratch_dir(ROOT) as out:
            code = workloads.run_bundle(ROOT, bundle, seed, out)
            if code != 0:
                raise SystemExit(f"{bundle.name} seed {seed}: cyclewalk run exited {code}")
            cols = workloads.read_bundle(out)
        fixed = {k: [float(x) for x in v] for k, v in cols.items()
                 if k != "t" and k not in SEED_COLUMNS}
        if "columns" not in entry:
            entry["t_max"] = len(cols["t"])
            entry["columns"] = fixed
        elif fixed != entry["columns"]:
            raise SystemExit(f"{bundle.name}: seed-independent columns changed with seed {seed}")
        entry["sampled"][str(seed)] = {k: [float(x) for x in cols[k]] for k in SEED_COLUMNS}
        print(f"{bundle.name} seed {seed}: ok", file=sys.stderr)
    return entry


def main() -> int:
    ref = {name: record(bundle) for name, bundle in workloads.BUNDLES.items()}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
