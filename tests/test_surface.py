"""The public surface: package exports, the README example, bench trace targets."""

import ast
import importlib
import importlib.util
import re
import shutil
from pathlib import Path

import quantstab
from quantstab import cli

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    """bench/spans.py as a module, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_all_names_resolve_sorted_and_unique():
    names = quantstab.__all__
    assert all(hasattr(quantstab, name) for name in names)
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_readme_quick_start_runs_as_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (API)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns: dict = {}
    exec(compile(block, "README.md", "exec"), ns)
    assert ns["min_sufficient_N"](ns["p"], "optimal") == 5
    assert ns["traj"].verdict == "stabilized"


def test_bench_trace_targets_resolve():
    # the traced benchmark run rebinds these functions by name
    spans = load_spans()
    assert spans.TARGETS
    for mod_name, fn_name in spans.TARGETS:
        mod = importlib.import_module(f"quantstab.{mod_name}")
        assert callable(getattr(mod, fn_name)), f"{mod_name}.{fn_name}"


def test_traced_simulate_records_one_loop_span_per_instance(tmp_path):
    # the step runs inside run_closed_loop, so a traced simulate records one
    # span per instance and writes the bytes an untraced run writes
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "[plant]\nn = 2\na_star = 1.0, 3.0\neps = 0.1, 0.35\n"
        "[simulate]\nN = 6\nhorizon = 40\ninstances = 3\n",
        encoding="utf-8",
    )
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(plain)]) == 0
    recorder = load_spans().SpanRecorder()
    recorder.install()
    try:
        rc = cli.main(["simulate", "--config", str(cfg), "--out", str(traced)])
    finally:
        recorder.uninstall()
    assert rc == 0
    assert recorder.layer_totals()["loop.run_closed_loop"]["calls"] == 3
    assert traced.read_bytes() == plain.read_bytes()


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never references, __future__ aside."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_detected():
    assert unused_imports("import os\nimport math as m\nfrom a import b\nm.pi\n") == [
        "b",
        "os",
    ]


def test_no_unused_imports_in_modules():
    for path in sorted((ROOT / "src" / "quantstab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def _referenced(stmt: ast.stmt) -> set[str]:
    """Names a statement reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_private_names(package: Path) -> list[str]:
    """module._name for each top-level private name of package/*.py that no
    top-level statement of the package reads other than its own definition."""
    defined = []  # (module, name, defining statement)
    readers = []  # (statement, names it reads)
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            readers.append((stmt, _referenced(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((path.stem, name, stmt))
    return [
        f"{mod}.{name}"
        for mod, name, own in defined
        if not any(name in reads for stmt, reads in readers if stmt is not own)
    ]


def test_unused_private_names_detected(tmp_path):
    package = tmp_path / "quantstab"
    shutil.copytree(ROOT / "src" / "quantstab", package)
    with (package / "rates.py").open("a", encoding="utf-8") as f:
        # a leftover helper, recursive so that it reads its own name
        f.write("\n\ndef _leftover(k):\n    return _leftover(k - 1) if k else 0\n")
        f.write("\n_LEFTOVER_LIMIT = 3\n")
    assert unused_private_names(package) == ["rates._leftover", "rates._LEFTOVER_LIMIT"]


def test_no_unused_private_names_in_modules():
    assert unused_private_names(ROOT / "src" / "quantstab") == []


# The functions that may do more with a margin than pass it on: the rescale
# helper, the only place it enters arithmetic, and the two range checks.
MARGIN_OWNERS = {"rates._rescaled", "rates._check_margin", "cli.cmd_sweep"}


def _loads(package: Path, name: str):
    """(module.function, node, parent map) for each load of the bare name or
    attribute `name` in package/*.py, with its innermost enclosing function."""
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
            ) or not isinstance(node.ctx, ast.Load):
                continue
            up = parent[node]
            while not isinstance(up, (ast.FunctionDef, ast.Module)):
                up = parent[up]
            yield f"{path.stem}.{getattr(up, 'name', '<module>')}", node, parent


def margin_arithmetic(package: Path) -> list[str]:
    """module.function for each read of `margin` in package/*.py, outside
    MARGIN_OWNERS, that does more than pass it on as a call argument."""
    found = []
    for where, node, parent in _loads(package, "margin"):
        up = parent[node]
        if isinstance(node, ast.Attribute) or isinstance(up, ast.keyword):
            continue
        if isinstance(up, ast.Call) and node in up.args:
            continue
        if where not in MARGIN_OWNERS:
            found.append(where)
    return found


def test_margin_arithmetic_detected(tmp_path):
    package = tmp_path / "quantstab"
    shutil.copytree(ROOT / "src" / "quantstab", package)
    with (package / "rates.py").open("a", encoding="utf-8") as f:
        # a second, per-period reading of the margin next to a passed-on one
        f.write("\n\ndef _per_period(margin):\n    _check_margin(margin)\n")
        f.write("    return math.log(1.0 - margin)\n")
    assert margin_arithmetic(package) == ["rates._per_period"]


def test_margin_enters_arithmetic_only_in_the_rescale():
    assert margin_arithmetic(ROOT / "src" / "quantstab") == []


# The one function that may read Fraction: the rescale keeps a rate past
# 2^1023 as an exact rational. Every verdict reads exact rates as integers.
FRACTION_OWNERS = {"rates._rescaled"}


def fraction_reads(package: Path) -> list[str]:
    """module.function for each read of `Fraction` in package/*.py outside
    FRACTION_OWNERS; importing it is not a read."""
    return [where for where, _, _ in _loads(package, "Fraction") if where not in FRACTION_OWNERS]


def test_fraction_read_detected(tmp_path):
    package = tmp_path / "quantstab"
    shutil.copytree(ROOT / "src" / "quantstab", package)
    with (package / "rates.py").open("a", encoding="utf-8") as f:
        # an exact fallback next to the integer verdicts
        f.write("\n\ndef _exact_sum(w):\n    return sum(map(Fraction, w)) < 1\n")
    with (package / "cli.py").open("a", encoding="utf-8") as f:
        f.write("\n\ndef _ratio(x):\n    import fractions\n\n    return fractions.Fraction(x)\n")
    assert fraction_reads(package) == ["cli._ratio", "rates._exact_sum"]


def test_fraction_read_only_in_the_rescale():
    assert fraction_reads(ROOT / "src" / "quantstab") == []
