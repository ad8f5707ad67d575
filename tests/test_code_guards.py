"""Static guards: no unused imports in the package or its tests, no assert
statements in the package, no scheme name outside the scheme table, no file
read but the --config file, and every package name the benchmark harness in
perfbench/ or the README's examples reach still resolves."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import ceapsk
import ceapsk.cli  # noqa: F401  (loads every submodule)

SRC = Path(ceapsk.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"
README = SRC.parents[1] / "README.md"
TESTS = Path(__file__).resolve().parent


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
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = [u for path in paths for u in _unused_imports(path)]
    assert not unused, unused


def test_no_assert_statements():
    # python -O strips asserts; package checks must raise instead
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring nodes of the module and its classes and
    functions."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def test_scheme_names_only_in_the_scheme_table():
    # code branches on a scheme's facts in sim.SCHEMES, never on its name
    names, in_table, found = set(ceapsk.SCHEMES), [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "SCHEMES" for t in node.targets):
                in_table += [n.value for n in ast.walk(node.value)
                             if isinstance(n, ast.Constant)]
                skip |= {id(n) for n in ast.walk(node.value)}
        found += [f"{path.name}:{n.lineno} {n.value}" for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and n.value in names
                  and id(n) not in skip]
    assert names <= set(in_table)  # the scan found the SCHEMES literal
    assert not found, found


def _import_time_imports(tree: ast.Module):
    """(module, line) of every import that runs when the module is
    imported: all of them outside function bodies."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, node.lineno
        todo.extend(ast.iter_child_nodes(node))


def test_scipy_imported_only_inside_functions():
    # scipy.special is most of the package's import time, and only the
    # union bound and the rate thresholds need it
    found = {path.name: list(_import_time_imports(ast.parse(path.read_text())))
             for path in sorted(SRC.glob("*.py"))}
    # the scan itself works
    assert "numpy" in {module for module, _ in found["constellation.py"]}
    at_import = [f"{name}:{line} {module}" for name, imports in found.items()
                 for module, line in imports
                 if module.split(".")[0] == "scipy"]
    assert not at_import, at_import


def _file_reads(tree: ast.Module):
    """The function enclosing every call that reads a file: open() in a
    read mode, read_text(), read_bytes() and json.load()."""
    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                if name == "open":
                    # open(path, mode) or path.open(mode), "r" by default;
                    # a mode that is not a literal counts as a read
                    args = child.args[isinstance(f, ast.Name):]
                    mode = next((kw.value for kw in child.keywords
                                 if kw.arg == "mode"),
                                args[0] if args else ast.Constant("r"))
                    if not (isinstance(mode, ast.Constant)
                            and set(str(mode.value)) & set("wax")):
                        yield func
                elif name in ("read_text", "read_bytes") or (
                        name == "load" and isinstance(f, ast.Attribute)
                        and getattr(f.value, "id", "") == "json"):
                    yield func
            yield from walk(child, func)
    return walk(tree, "<module>")


def test_only_the_config_file_is_read():
    # a run's results come from its flags alone: tables are built in the
    # run, and the --config file is the one file the package reads
    reads = {f"{path.name}:{func}" for path in sorted(SRC.glob("*.py"))
             for func in _file_reads(ast.parse(path.read_text()))}
    assert reads == {"cli.py:_apply_config_file"}, reads


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


def test_readme_imports_resolve():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    names = {(node.module, alias.name) for block in blocks
             for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom)
             and node.module.split(".")[0] == "ceapsk"
             for alias in node.names}
    assert ("ceapsk", "solve_p2") in names  # the scan itself works
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(module), name)]
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
