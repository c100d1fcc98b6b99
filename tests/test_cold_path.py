"""The commands whose answers are closed forms run without numpy, and a
fresh interpreter builds nothing at import that a command does not use.

Each test runs a fresh interpreter with sys.modules["numpy"] = None, so any
import of numpy, from any module, raises at the line that makes it. Only
the oracles load numpy, on first use, so `verify` alone needs it: without
it, `verify` exits 1 with a one-line message. `bounds` and `schedule` rows
of any order, `quantizer` exports and `simulate` load no numpy. The
stability tests return only their exact verdict, and the n >= 2 schedule
search screens with a Newton root in plain floats. `simulate` draws its
seeded uniform instances and initial outputs without numpy, bit for bit as
numpy's default_rng would.
The closed-loop kernel of a plant order and box-sign pattern is generated
on its first run, the seed hashing of the uniform draws on the first draw
(a lone seed or a batch's block of them alike), and the exact verdict code
of an order on its first product.
fractions is blocked the same way where a test says so: only the rescale's
exact-rational branch imports it.
dataclasses and inspect are blocked in every run too: the records are
__slots__ classes, so no command needs them. So are argparse and gettext:
main reads a well-formed command line itself, and imports argparse only
for help and usage errors. `import quantstab` loads none
of its modules; `import quantstab.cli` leaves the code of `loop` and
`oracle` unrun until `simulate` or `verify` reads them.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from quantstab.cli import main
from test_cli import BOUNDS_CFG
from test_schedule_frozen import CONFIG, FROZEN_CSV, FROZEN_NOTES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def blocking(names: tuple[str, ...]) -> str:
    """Lines after which any import of one of names raises."""
    return f"import sys\nfor _name in {names!r}:\n    sys.modules[_name] = None\n"


BLOCK = blocking(("numpy", "dataclasses", "inspect", "argparse", "gettext"))

# whether the code of loop and oracle has run: cli puts each in sys.modules
# as a lazy module, which turns into a plain module on its first read
RAN = """
import types
print(*(type(sys.modules.get(f"quantstab.{m}")) is types.ModuleType for m in ("loop", "oracle")))
"""


def run_blocked(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", BLOCK + code],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def run_cli_blocked(argv: list[str], cwd: Path, block: str = "") -> subprocess.CompletedProcess:
    """main(argv) with numpy blocked, after the lines block."""
    return run_blocked(f"{block}from quantstab.cli import main\nsys.exit(main({argv!r}))\n", cwd)


def test_import_loads_no_numpy(tmp_path):
    res = run_blocked("import quantstab\nimport quantstab.cli\n", tmp_path)
    assert (res.returncode, res.stderr) == (0, "")


def test_usage_error_imports_argparse_on_demand(tmp_path):
    # the one module-blocking run that lets argparse load: an unknown flag
    # is argparse's to report
    cfg = tmp_path / "b.cfg"
    cfg.write_text(BOUNDS_CFG, encoding="utf-8")
    argv = ["bounds", "--config", str(cfg), "--m-maxx", "3"]
    block = blocking(("numpy", "dataclasses", "inspect"))
    code = f"{block}from quantstab.cli import main\nprint('argparse' in sys.modules)\nsys.exit(main({argv!r}))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stdout) == (2, "False\n")
    assert res.stderr.startswith("usage: quantstab ")
    assert res.stderr.endswith("quantstab: error: unrecognized arguments: --m-maxx 3\n")


def test_scalar_schedule_sweep_without_numpy(tmp_path):
    cfg, out = tmp_path / "c9.cfg", tmp_path / "c9.csv"
    cfg.write_text(CONFIG, encoding="utf-8")
    argv = ["schedule", "--config", str(cfg), "--out", str(out), "--m-max", "32", "--n-max", "64"]
    res = run_cli_blocked(argv, tmp_path)
    assert (res.returncode, res.stderr) == (0, "")
    assert out.read_text(encoding="utf-8") == FROZEN_CSV
    assert res.stdout == FROZEN_NOTES


def test_import_and_scalar_schedule_sweep_without_fractions(tmp_path):
    # the import and a criterion-9 sweep at margin 0 never reach the
    # exact-rational rescale, so they load no fractions (nor decimal)
    cfg, out = tmp_path / "c9.cfg", tmp_path / "c9.csv"
    cfg.write_text(CONFIG, encoding="utf-8")
    argv = ["schedule", "--config", str(cfg), "--out", str(out), "--m-max", "32", "--n-max", "64"]
    res = run_cli_blocked(argv, tmp_path, block='sys.modules["fractions"] = None\n')
    assert (res.returncode, res.stderr) == (0, "")
    assert out.read_text(encoding="utf-8") == FROZEN_CSV
    assert res.stdout == FROZEN_NOTES


def test_scalar_search_without_numpy(tmp_path):
    # the criterion-9 rows and, at eps = 0, rows whose integer size products
    # tie lambda^m inside the rounding band
    code = """\
from quantstab.plant import UncertainPlant
from quantstab.rates import search_periodic_schedule
grid = [(1.40 + 0.05 * j, 0.35, 32) for j in range(53)]
ties = [(lam, 0.0, 6) for lam in (4.0, 6.0, 8.0)]
for lam, eps, m_max in grid + ties:
    res = search_periodic_schedule(UncertainPlant(1, (lam,), (eps,), (1.0,)), m_max, 64)
    assert res is not None and res.exact, lam
print(len(grid + ties))
"""
    res = run_blocked(code, tmp_path)
    assert (res.returncode, res.stderr, res.stdout) == (0, "", "56\n")


STABILITY_VERDICTS = """\
from quantstab.plant import UncertainPlant
from quantstab.quantizer import QuantizerSpec, quantizer_for
from quantstab.rates import Schedule, periodic_sufficient_test, sufficient_test

def explicit(N):  # a layout no family builds: half-boundaries spaced as l^0.8
    K = (N + 1) // 2
    return QuantizerSpec(N, (0.0, *(0.5 * (l / K) ** 0.8 for l in range(1, K)), 0.5))

verdicts = []
for p in (UncertainPlant(1, (3.0,), (0.35,), (1.0,)),
          UncertainPlant(3, (0.3, -0.2, 2.2), (0.02, 0.05, 0.2), (1.0,) * 3)):
    for margin in (0.0, 0.05):
        for N in range(2, 13):
            verdicts.append(sufficient_test(p, quantizer_for("optimal", p, N), margin).stable)
            verdicts.append(sufficient_test(p, explicit(N), margin).stable)
        for sizes in ((2, 8), (3, 9), (5, 6, 7, 12)):
            sched = Schedule(sizes)
            verdicts.append(periodic_sufficient_test(p, sched, "optimal", margin).stable)
            verdicts.append(periodic_sufficient_test(p, sched, list(map(explicit, sizes)), margin).stable)
"""


def test_stability_tests_and_readme_quick_start_without_numpy(tmp_path):
    # the verdicts of both stability tests with numpy blocked are those of
    # this process, where numpy loads; then the README quick start runs
    ns: dict = {}
    exec(STABILITY_VERDICTS, ns)
    want = ns["verdicts"]
    assert any(want) and not all(want)
    res = run_blocked(STABILITY_VERDICTS + "print(verdicts)\n", tmp_path)
    assert (res.returncode, res.stderr, res.stdout) == (0, "", f"{want}\n")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (API)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    check = 'print(sufficient_test(p, q).stable, min_sufficient_N(p, "optimal"), traj.verdict)\n'
    res = run_blocked(block + check, tmp_path)
    assert (res.returncode, res.stderr, res.stdout) == (0, "", "True 5 stabilized\n")


N2_BOUNDS_CFG = """\
[plant]
n = 2
a_star = 0.3, 2.2
eps = 0.02, 0.2

[sweep]
lambda_min = 1.9
lambda_max = 2.5
lambda_step = 0.3
"""

QUANTIZER_CFG = "[plant]\nn = 1\na_star = 3.0\neps = 0.5\n\n[quantizer]\nN = 8\n"


@pytest.mark.parametrize(
    "command, text, args",
    [
        ("bounds", BOUNDS_CFG, []),
        ("bounds", N2_BOUNDS_CFG, []),
        ("schedule", N2_BOUNDS_CFG, ["--m-max", "6"]),
        ("quantizer", QUANTIZER_CFG, []),
    ],
    ids=["bounds_n1", "bounds_n2", "schedule_n2", "quantizer"],
)
def test_command_without_numpy_writes_the_same_bytes(command, text, args, tmp_path, capsys):
    cfg = tmp_path / "in.cfg"
    cfg.write_text(text, encoding="utf-8")
    blocked, ref = tmp_path / "blocked.csv", tmp_path / "ref.csv"
    res = run_cli_blocked([command, "--config", str(cfg), "--out", str(blocked), *args], tmp_path)
    assert (res.returncode, res.stderr) == (0, "")
    assert main([command, "--config", str(cfg), "--out", str(ref), *args]) == 0
    assert blocked.read_bytes() == ref.read_bytes()
    assert res.stdout == capsys.readouterr().out


def test_verify_without_numpy_exits_1_naming_the_oracle_extra(tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("[verify]\nresolution = 1e-3\n", encoding="utf-8")
    res = run_cli_blocked(["verify", "--config", str(cfg), "--out", str(tmp_path / "v.csv")], tmp_path)
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == "verify needs numpy: install quantstab[oracle]\n"
    assert not (tmp_path / "v.csv").exists()


SIMULATE_CFG = """\
[plant]
n = 2
a_star = 0.3, 2.2
eps = 0.02, 0.2
init_bounds = 1.0, 0.5

[simulate]
N = 6
horizon = 60
instances = {instances}
instance_mode = uniform
init_mode = uniform
seed = 11
"""


@pytest.mark.parametrize("instances", [1, 24], ids=["single", "batch"])
def test_simulate_without_numpy_writes_the_same_bytes(instances, tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIMULATE_CFG.format(instances=instances), encoding="utf-8")
    blocked, ref = tmp_path / "blocked.csv", tmp_path / "ref.csv"
    res = run_cli_blocked(["simulate", "--config", str(cfg), "--out", str(blocked)], tmp_path)
    code = main(["simulate", "--config", str(cfg), "--out", str(ref)])
    out, err = capsys.readouterr()
    assert (res.returncode, res.stdout, res.stderr) == (code, out, err)
    assert blocked.read_bytes() == ref.read_bytes()


def test_import_builds_no_kernel_and_a_batch_builds_one(tmp_path):
    # the kernel of an order and box-sign pattern is built on its first run,
    # not at import, so set-up pays for none; a batch looks it up once, in
    # the one loop set-up that every instance shares. Both boxes of
    # SIMULATE_CFG lie above 0, so its pattern is "++"
    cfg = tmp_path / "batch.cfg"
    cfg.write_text(SIMULATE_CFG.format(instances=24), encoding="utf-8")
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "batch.csv")]
    code = f"""\
import quantstab.cli
from quantstab import loop
print(loop._kernel.cache_info().currsize)
status = quantstab.cli.main({argv!r})
info = loop._kernel.cache_info()
print(status, info.misses, info.hits, info.currsize)
print(loop._kernel("++") is loop._kernel("++") and loop._kernel.cache_info().misses == 1)
"""
    res = run_blocked(code, tmp_path)
    assert (res.returncode, res.stderr) == (0, "")
    lines = res.stdout.splitlines()
    # one build, in the first run of the batch; its other 23 instances look
    # up none, and the build was the default kernel, not its row variant
    assert (lines[0], lines[-2], lines[-1]) == ("0", "0 1 0 1", "True")
    assert lines[-3].startswith("instances=24 ")


def test_single_trajectory_builds_the_row_kernel_alone(tmp_path):
    # a one-instance simulate formats its rows in the step: it builds the
    # row variant of its order and sign pattern and no default kernel, with
    # numpy blocked
    cfg = tmp_path / "single.cfg"
    cfg.write_text(SIMULATE_CFG.format(instances=1), encoding="utf-8")
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "single.csv")]
    code = f"""\
import quantstab.cli
from quantstab import loop
print(loop._kernel.cache_info().currsize)
status = quantstab.cli.main({argv!r})
info = loop._kernel.cache_info()
print(status, info.misses, info.hits, info.currsize)
print(loop._kernel("++", True) is loop._kernel("++", True), loop._kernel.cache_info().misses)
"""
    res = run_blocked(code, tmp_path)
    assert (res.returncode, res.stderr) == (0, "")
    lines = res.stdout.splitlines()
    assert (lines[0], lines[-2], lines[-1]) == ("0", "0 1 0 1", "True 1")
    assert lines[-3].startswith("verdict: ")


def test_import_compiles_no_draw_code_and_the_first_draw_compiles_it(tmp_path):
    # the straight-line seed hashing is generated on the first uniform draw,
    # and only then; every later draw, with any number of words, reuses it
    code = """\
import quantstab.cli
from quantstab import plant
info = plant._seeding.cache_info
print(info().currsize)
plant.sample_instance(plant.UncertainPlant(1, (2.0,), (0.1,), (1.0,)), "uniform", seed=3)
print(info().misses, info().hits)
plant._uniform_draws([5, 1, 0, 7, 9], [(0.0, 1.0)])
plant._uniform_draws([], [(0.0, 1.0)])
print(info().misses, info().hits, info().currsize)
"""
    res = run_blocked(code, tmp_path)
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.splitlines() == ["0", "1 0", "1 2 1"]


def test_a_batch_compiles_the_draw_code_once_as_a_single_run_does(tmp_path):
    # a batch hashes the seeds of a block of instances in one pass per
    # stream; the passes of every block, and a lone draw, reuse the one
    # compiled hashing code, with numpy blocked
    cfg = tmp_path / "batch.cfg"
    cfg.write_text(
        SIMULATE_CFG.format(instances=1030).replace("horizon = 60", "horizon = 1"), encoding="utf-8"
    )
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "batch.csv")]
    code = f"""\
import quantstab.cli
from quantstab import plant
info = plant._seeding.cache_info
print(info().currsize)
status = quantstab.cli.main({argv!r})
print(status, info().misses, info().hits)
plant._uniform_draws([11, 0, 0], [(0.0, 1.0)])
print(info().misses, info().hits, info().currsize)
"""
    res = run_blocked(code, tmp_path)
    assert (res.returncode, res.stderr) == (0, "")
    lines = res.stdout.splitlines()
    # two blocks (1024 and 6 instances) of two streams: four passes
    assert (lines[0], lines[-2], lines[-1]) == ("0", "0 1 3", "1 4 1")
    assert lines[-3].startswith("instances=1030 ")


N1_ROW_CFG = CONFIG.replace("lambda_min = 1.40", "lambda_min = 1.95").replace(
    "lambda_max = 4.00", "lambda_max = 1.95"
)
N2_ROW_CFG = """\
[plant]
n = 2
a_star = 0.3, 2.3
eps = 0.02, 0.2

[sweep]
lambda_min = 2.3
lambda_max = 2.3
lambda_step = 0.1
"""


def test_import_builds_no_verdict_code_and_a_row_builds_its_order(tmp_path):
    # the verdict code of an order is built on its first use: the import and
    # an n = 1 criterion-9 row build none, an n = 2 schedule row order 2 alone
    argv = []
    for name, text in (("n1", N1_ROW_CFG), ("n2", N2_ROW_CFG)):
        (tmp_path / f"{name}.cfg").write_text(text, encoding="utf-8")
        argv.append(["schedule", "--config", f"{name}.cfg", "--out", f"{name}.csv"])
    code = f"""\
import quantstab.cli
from quantstab import rates
built = rates._verdict_code.cache_info
print("built", built().currsize)
quantstab.cli.main({argv[0]!r})
print("built", built().currsize)
quantstab.cli.main({argv[1]!r})
info = built()
rates._verdict_code(2)
print("built", info.currsize, built().misses - info.misses)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stderr) == (0, "")
    lines = res.stdout.splitlines()
    assert [line for line in lines if line.startswith("built")] == ["built 0", "built 0", "built 1 0"]
    assert "lambda=1.95 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 4, 4, 4, 4, 4] (exact)" in lines
    assert any(line.startswith("lambda=2.3 ") and line.endswith("(heuristic)") for line in lines)


def test_import_loads_no_module_and_every_name_resolves_on_first_read(tmp_path):
    # dir lists every __all__ name before any is read; a read imports the
    # name's module and binds the name in the package
    code = """\
import quantstab
print(sorted(m for m in sys.modules if m.startswith("quantstab.")))
print(set(quantstab.__all__) <= set(dir(quantstab)))
for name in quantstab.__all__:
    value = getattr(quantstab, name)
    home = sys.modules["quantstab." + quantstab._HOME[name]]
    assert vars(quantstab)[name] is value is getattr(home, name), name
print(len(quantstab.__all__), quantstab.rates.__name__)
"""
    res = run_blocked(code, tmp_path)
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.splitlines() == ["[]", "True", "37 quantstab.rates"]


def test_unknown_package_name_is_an_attribute_error():
    import quantstab

    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        quantstab.nonexistent
    assert set(quantstab.__all__) <= set(dir(quantstab))


@pytest.mark.parametrize(
    "command, text, args",
    [
        ("bounds", N2_BOUNDS_CFG, []),
        ("schedule", N2_BOUNDS_CFG, ["--m-max", "6"]),
        ("quantizer", QUANTIZER_CFG, []),
        ("simulate", SIMULATE_CFG.format(instances=3), []),
    ],
    ids=["bounds", "schedule", "quantizer", "simulate"],
)
def test_only_simulate_runs_the_loop_and_none_runs_the_oracles(command, text, args, tmp_path):
    cfg = tmp_path / "in.cfg"
    cfg.write_text(text, encoding="utf-8")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out.csv"), *args]
    res = run_blocked(f"from quantstab.cli import main\nassert main({argv!r}) == 0\n{RAN}", tmp_path)
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.splitlines()[-1] == ("True False" if command == "simulate" else "False False")


def test_verify_runs_the_oracles(tmp_path):
    # numpy loads here: the oracles' array programs need it
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("[verify]\nresolution = 0.01\n", encoding="utf-8")
    argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "v.csv")]
    code = f"import sys\nfrom quantstab.cli import main\nassert main({argv!r}) == 0\n{RAN}"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.splitlines()[-1] == "False True"
