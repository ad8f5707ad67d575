"""Static guards: no unused imports in the package or its tests, no assert
statements in the package, no scheme name outside the scheme table, each
one-place rule (_ONE_PLACE) holds, every package name the benchmark harness
in perfbench/ or the README's examples reach still resolves, every README
command parses, and every public name has a caller."""

import ast
import importlib
import importlib.util
import math
import re
import shlex
import sys
import tokenize
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


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def test_no_scipy_in_src():
    # the package runs on numpy alone: scipy is named only in docstrings
    # (credits and what the ports agree with), never imported, not even
    # inside a function, and never reached by a string or a name
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        docs = _docstring_lines(ast.parse(text))
        with tokenize.open(path) as f:
            tokens = list(tokenize.generate_tokens(f.readline))
        found += [f"{path.name}:{tok.start[0]} {tok.string.strip()[:40]}"
                  for tok in tokens if "scipy" in tok.string.lower()
                  and not (tok.type == tokenize.STRING
                           and tok.start[0] in docs)]
    # the scan itself works: constellation's docstring credits SciPy
    assert "scipy" in (SRC / "constellation.py").read_text().lower()
    assert not found, found


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


def test_readme_commands_parse():
    # the shell twin of test_readme_imports_resolve: every `ceapsk ...`
    # command in the README's sh blocks parses, without running
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    commands = [shlex.split(line)[1:] for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("ceapsk ")]
    # the scan itself works, and joins a command split over lines
    assert ["cdf", "--trials", "1e6", "--out-dir", "out"] in commands
    assert any("--threads" in argv for argv in commands)
    bad = []
    for argv in commands:
        try:
            ceapsk.cli.build_parser().parse_args(
                ceapsk.cli._apply_config_file(argv))
        except SystemExit:
            bad.append(argv)
    assert not bad, bad


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
            "optimizer.build_region_table", "constellation.qam_family",
            "precoder.phases_for_targets", "precoder.reconstruct",
            "precoder.transmit", "rng.stream", "sim.run_fixed_rate_ser",
            "sim.run_csit_sweep", "sim.run_variable_rate",
            "cli.load_or_build_table"} <= names


def _references(node, inside=frozenset()):
    """(name, names of the enclosing defs and classes) per Name and per
    Attribute under node."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, (ast.Name, ast.Attribute)):
        yield node.id if isinstance(node, ast.Name) else node.attr, inside
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


def test_public_names_have_callers():
    # a public name is used in the package outside its own definition, by
    # the benchmark or by the acceptance tests; strings (__all__) do not count
    paths = [*sorted(SRC.glob("*.py")), *sorted(PERFBENCH.glob("*.py")),
             TESTS / "test_acceptance.py"]
    used = {name for path in paths
            for name, inside in _references(ast.parse(path.read_text()))
            if name not in inside}
    public = set(ceapsk.__all__) - {"__version__"}
    assert "solve_p2" in public  # the scan itself works
    assert sorted(public - used) == []


def test_safe_radius_stated_as_in_the_code():
    # the skip radius is written out in _ser_steps' error budget and in the
    # README: every multiple of d_cell stated there is the radius or the
    # slack left to d_cell / 2, and every multiple of the MED in the README
    # is the radius
    from ceapsk import sim
    radius = sim._SAFE_RADIUS
    doc = [float(x) for x in re.findall(r"(\d+\.\d+)\s+d_cell",
                                        sim._ser_steps.__doc__)]
    readme = [float(x) for x in re.findall(r"(\d+\.\d+)\s+MED",
                                           README.read_text())]
    assert radius in doc and radius in readme  # the scans themselves work
    assert all(x == radius or math.isclose(x, 0.5 - radius, abs_tol=1e-12)
               for x in doc), doc
    assert all(x == radius for x in readme), readme


def _in_function(home, found, files) -> tuple[list[str], list[str]]:
    """(inside, outside): the nodes n with found(n) in the src files matching
    `files`, as file:line, split by whether they lie in the function home,
    named as file:function."""
    inside, outside = [], []
    for path in sorted(SRC.glob(files)):
        tree = ast.parse(path.read_text())
        body = {id(n) for f in ast.walk(tree)
                if isinstance(f, ast.FunctionDef)
                and f"{path.name}:{f.name}" == home for n in ast.walk(f)}
        for n in ast.walk(tree):
            if found(n):
                (inside if id(n) in body else outside).append(
                    f"{path.name}:{n.lineno}")
    return inside, outside


def _reads_a_file(n) -> bool:
    """n is a call that reads a file: open() in a read mode (a mode that is
    not a literal counts as one), read_text(), read_bytes() or json.load()."""
    f = getattr(n, "func", None)  # only a call has one
    name = getattr(f, "id", None) or getattr(f, "attr", None)
    if name == "open":  # open(path, mode) or path.open(mode), "r" by default
        args = n.args[isinstance(f, ast.Name):]
        mode = next((kw.value for kw in n.keywords if kw.arg == "mode"),
                    args[0] if args else ast.Constant("r"))
        return not (isinstance(mode, ast.Constant)
                    and set(str(mode.value)) & set("wax"))
    return name in ("read_text", "read_bytes") or (
        f is not None and ast.unparse(f) == "json.load")


def _calls(attr=None, name=None):
    """The predicate of a call x.attr(...) or name(...)."""
    return lambda n: isinstance(n, ast.Call) and (
        getattr(n.func, "attr", 0) == attr or getattr(n.func, "id", 0) == name)


# every rule "concept X is written in one function", under the name of the
# test that checks it: (its home as file:function, the src files scanned,
# the predicate of a site, the count of sites in the home or None for at
# least one).  A site in a def nested in the home is in the home.
_ONE_PLACE = {
    # a run's results come from its flags alone: tables are built in the
    # run, and the --config file is the one file the package reads
    "test_only_the_config_file_is_read": (
        "cli.py:_apply_config_file", "*.py", _reads_a_file, 2),
    # one place writes a run's files: cli._write_run makes the out dir and
    # writes the manifest, so no command can write before its run succeeds
    "test_cli_writes_only_in_the_run_writer": (
        "cli.py:_write_run", "cli.py", _calls("mkdir", "write_manifest"), 2),
    # one skip rule: both SER engines reach _SAFE_RADIUS only through the
    # screen that sim._ser_steps builds
    "test_safe_radius_read_only_in_the_shared_screen": (
        "sim.py:_ser_steps", "*.py", lambda n: (
            isinstance(n, ast.Name) and n.id == "_SAFE_RADIUS"
            and isinstance(n.ctx, ast.Load))
        or getattr(n, "attr", None) == "_SAFE_RADIUS", None),
    # one premise check: both SER engines detect w = s + e / R, which rests
    # on R s lying in the annulus, and only the screen checks it
    "test_annulus_checked_only_in_the_shared_screen": (
        "sim.py:_ser_steps", "*.py", lambda n: isinstance(n, ast.Constant)
        and "target left the annulus" in str(n.value), 1),
    # one determinism rule: sim._reduce_chunks alone forms a chunk's stream,
    # so no engine sees a chunk index or a stream key
    "test_streams_formed_only_in_the_chunk_reduce": (
        "sim.py:_reduce_chunks", "sim.py", _calls(name="stream"), 1),
    # one draw path: every standard normal in the package, channel, noise
    # and CSIT error alike, is drawn by channel._complex_normal_blocks: the
    # held real parts, the skip past the replayed ones, the replayed real
    # parts and the imaginary parts
    "test_normals_drawn_only_in_the_block_draw": (
        "channel.py:_complex_normal_blocks", "*.py",
        _calls("standard_normal"), 4),
    # one channel draw: sqrt(beta / 2) scales a drawn channel in
    # channel._channel_blocks alone, for every engine and the union bound
    "test_path_loss_scaled_only_in_the_channel_draw": (
        "channel.py:_channel_blocks", "*.py", lambda n: isinstance(n, ast.Call)
        and re.fullmatch(r".*\.sqrt\(path_loss / 2(\.0)?\)", ast.unparse(n),
                         re.I), 1),
}


def _one_place_test(home, files, found, count):
    def test():
        # as many sites lie in the home as the row says (so the scan itself
        # works), and none outside it
        inside, outside = _in_function(home, found, files)
        assert inside and count in (None, len(inside)), inside
        assert not outside, outside
    return test


for _name, _row in _ONE_PLACE.items():
    globals()[_name] = _one_place_test(*_row)
