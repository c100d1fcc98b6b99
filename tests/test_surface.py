"""The public surface: package exports, the README example, bench trace targets."""

import importlib
import importlib.util
import re
from pathlib import Path

import quantstab

ROOT = Path(__file__).resolve().parents[1]


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
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for mod_name, fn_name in spans.TARGETS:
        mod = importlib.import_module(f"quantstab.{mod_name}")
        assert callable(getattr(mod, fn_name)), f"{mod_name}.{fn_name}"
