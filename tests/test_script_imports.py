"""Every ``from cyclewalk... import name`` in the demos, the benchmark
scripts and the README's library tour resolves, and so does every name in
``cyclewalk.__all__`` and every function the benchmark's tracing patches,
so an API removal cannot break a script unnoticed.

The scripts are parsed here, and the README tour is also run; the demos
are run in ``test_demos.py``.
"""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import cyclewalk

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])


def cyclewalk_imports(source: str, filename: str) -> list[tuple[str, str]]:
    tree = ast.parse(source, filename=filename)
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module.split(".")[0] == "cyclewalk"
        for alias in node.names
    ]


def resolves(module: str, name: str) -> bool:
    """``from module import name`` succeeds: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def readme_tour() -> str:
    """The README's fenced ``python`` block."""
    (block,) = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    return block


def test_scripts_found():
    assert any(p.parent.name == "demos" for p in SCRIPTS)
    assert any(p.parent.name == "perfbench" for p in SCRIPTS)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_cyclewalk_imports_resolve(path):
    for module, name in cyclewalk_imports(path.read_text(), str(path)):
        assert resolves(module, name), f"{path.name}: {module}.{name}"


def test_public_names_resolve():
    missing = [name for name in cyclewalk.__all__ if not hasattr(cyclewalk, name)]
    assert missing == []


def test_readme_tour_imports_resolve_and_it_runs(capsys):
    tour = readme_tour()
    imports = cyclewalk_imports(tour, "README.md")
    assert imports
    for module, name in imports:
        assert resolves(module, name), f"README: {module}.{name}"
    exec(compile(tour, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def perfbench_module(name: str):
    """``perfbench/<name>.py``, loaded by path as ``perfbench_<name>`` (its
    dataclasses need their module registered)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_probe_targets_resolve():
    # tracing patches these attributes by name, so a rename breaks a traced run
    tracing = perfbench_module("tracing")
    probes = [probe[:2] for probe in (*tracing.SPAN_PROBES, *tracing.COUNTER_PROBES)]
    assert probes
    missing = [f"{module.__name__}.{attr}" for module, attr in probes
               if not callable(getattr(module, attr, None))]
    assert missing == []


@pytest.mark.parametrize("workload", ["parrondo-4cycle", "parrondo-3cycle-dd", "hadamard-8cycle-dd"])
def test_traced_bundle_keeps_the_trace_contract(tmp_path, workload):
    # every probe the benchmark expects fires, the gate and event counts tie,
    # and the bundle matches the benchmark's reference
    tracing, workloads = perfbench_module("tracing"), perfbench_module("workloads")
    bundle, seed = workloads.BUNDLES[workload], 1
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        job = tracer.open("cli")
        code = workloads.run_bundle(ROOT, bundle, seed, tmp_path)
        tracer.close(job)
    assert code == 0
    tracer.check_job(workloads.EXPECTED_PROBES[workload])
    assert tracer.violations == []
    cols = workloads.read_bundle(tmp_path)
    assert workloads.check_bundle(bundle, seed, cols, workloads.load_reference()) == []


def test_traced_coin_search_keeps_the_trace_contract():
    # the benchmark's coin-search job under its "bench" root span: walk and
    # both period finders are reached through the module attributes it probes
    tracing, workloads = perfbench_module("tracing"), perfbench_module("workloads")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        job = tracer.open("bench")
        rows = workloads.run_coin_search(workloads.coin_batch(1))
        tracer.close(job)
    tracer.check_job(workloads.EXPECTED_PROBES[workloads.COIN_SEARCH])
    assert tracer.violations == []
    assert workloads.check_coin_search(rows) == []
