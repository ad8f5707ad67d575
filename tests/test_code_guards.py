"""Static guards: no unused imports in the package, and every package name
the benchmark harness in perfbench/ reaches still resolves."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import ceapsk
import ceapsk.cli  # noqa: F401  (loads every submodule)

SRC = Path(ceapsk.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # re-exports listed in __all__
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    unused = [u for path in sorted(SRC.glob("*.py")) for u in _unused_imports(path)]
    assert not unused, unused


def _resolve(dotted: str):
    obj = ceapsk
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_perfbench_references_resolve():
    names = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        names |= set(re.findall(r"(?<![\w/])ceapsk\.([A-Za-z_]\w*(?:\.\w+)*)",
                                path.read_text()))
    assert "sample_rayleigh" in names  # the scan itself works
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except AttributeError:
            missing.append(name)
    assert not missing, missing


def test_perfbench_layer_targets_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.layer_targets(sys.modules["ceapsk"])
    missing = [name for name, owner, attr in targets if not hasattr(owner, attr)]
    assert not missing, missing
    names = {name for name, _, _ in targets}
    # the functions the benchmark's workloads report as layers
    assert {"channel.annulus_arrays", "channel.sample_rayleigh",
            "optimizer.params_at", "optimizer.d_min_at",
            "optimizer.build_region_table", "constellation.qfunc",
            "constellation.qam_family", "precoder.phases_for_targets",
            "precoder.reconstruct", "precoder.transmit", "rng.stream",
            "sim.run_fixed_rate_ser", "sim.run_csit_sweep",
            "sim.run_variable_rate", "cli.load_or_build_table"} <= names
