"""The commands whose answers are closed forms run without numpy, and a
fresh interpreter builds nothing at import that a command does not use.

Each test runs a fresh interpreter with sys.modules["numpy"] = None, so any
import of numpy, from any module, raises at the line that makes it. Only the
eigvals diagnostics and the oracles load numpy, on first use: `verify` and
n >= 2 `schedule` rows. `simulate` draws its seeded uniform instances and
initial outputs without numpy, bit for bit as numpy's default_rng would.
The closed-loop kernel of a plant order is generated on its first run.
fractions is blocked the same way where a test says so: only the rescale's
exact-rational branch imports it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from quantstab.cli import main
from test_cli import BOUNDS_CFG
from test_schedule_frozen import CONFIG, FROZEN_CSV, FROZEN_NOTES

SRC = Path(__file__).resolve().parents[1] / "src"

BLOCK = 'import sys\nsys.modules["numpy"] = None\n'


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
    "command, text",
    [("bounds", BOUNDS_CFG), ("bounds", N2_BOUNDS_CFG), ("quantizer", QUANTIZER_CFG)],
    ids=["bounds_n1", "bounds_n2", "quantizer"],
)
def test_command_without_numpy_writes_the_same_bytes(command, text, tmp_path):
    cfg = tmp_path / "in.cfg"
    cfg.write_text(text, encoding="utf-8")
    blocked, ref = tmp_path / "blocked.csv", tmp_path / "ref.csv"
    res = run_cli_blocked([command, "--config", str(cfg), "--out", str(blocked)], tmp_path)
    assert (res.returncode, res.stderr) == (0, "")
    assert main([command, "--config", str(cfg), "--out", str(ref)]) == 0
    assert blocked.read_bytes() == ref.read_bytes()


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
    # the kernel of an order is built on its first run, not at import, so
    # set-up pays for none; every instance of a batch shares its one kernel
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
"""
    res = run_blocked(code, tmp_path)
    assert (res.returncode, res.stderr) == (0, "")
    lines = res.stdout.splitlines()
    # one build for the 24 instances, which the other 23 reuse
    assert (lines[0], lines[-1]) == ("0", "0 1 23 1")
    assert lines[-2].startswith("instances=24 ")
