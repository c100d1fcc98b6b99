"""Config parsing, CSV emission, determinism, and exit codes."""

import math
import os

import pytest

from quantstab import cli, rates
from quantstab.cli import (
    Config,
    ConfigError,
    RATES_CSV_HEADER,
    TRAJECTORY_CSV_HEADER,
    canonical_cases,
    fmt,
    main,
    parse_config_text,
    plant_from_config,
    run_verification,
    sweep_from_config,
    worker_count,
)
from quantstab.quantizer import optimal_boundaries
from quantstab.rates import necessary_rate

BOUNDS_CFG = """\
# scalar plant sweep
[plant]
n = 1
a_star = 2.0
eps = 0.1

[sweep]
lambda_min = 1.5
lambda_max = 2.0
lambda_step = 0.25
"""

SIM_CFG = """\
[plant]
n = 1
a_star = 3.0
eps = 0.5

[simulate]
N = 8
horizon = 120
instances = {instances}
seed = 7
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# parsing


def test_parse_sections_comments_and_line_numbers():
    text = "# top\n[plant]\nn = 2\n; aside\na_star = 1.0, 3.0\n"
    sec = parse_config_text(text)
    assert sec["plant"]["n"] == ("2", 3)
    assert sec["plant"]["a_star"] == ("1.0, 3.0", 5)


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("[a]\nx = 1\nbroken line\n")


def test_parse_rejects_key_outside_section():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("x = 1\n")


def test_parse_rejects_empty_section_and_key():
    with pytest.raises(ConfigError, match="empty section"):
        parse_config_text("[]\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("[a]\n= 5\n")


def test_typed_getters_and_errors():
    cfg = Config(parse_config_text("[s]\nk = nope\nv = 1, x\nw = 1, 2,\n"))
    with pytest.raises(ConfigError, match="must be an integer"):
        cfg.get_int("s", "k")
    with pytest.raises(ConfigError, match="comma-separated numbers"):
        cfg.get_floats("s", "v")
    assert cfg.get_ints("s", "w") == (1, 2)
    assert cfg.get_floats("s", "w") == (1.0, 2.0)
    assert cfg.get_int("s", "absent", 9) == 9
    assert cfg.get_str("missing", "key", "d") == "d"


@pytest.mark.parametrize(
    "getter,args,message",
    [
        ("get_int", (), "config line 2: 'k' must be an integer, got 'nope'"),
        ("get_float", (), "config line 2: 'k' must be a number, got 'nope'"),
        ("get_floats", (), "config line 2: 'k' must be comma-separated numbers, got 'nope'"),
        ("get_ints", (), "config line 2: 'k' must be comma-separated integers, got 'nope'"),
        (
            "get_choice",
            (("a", "b"), "a"),
            "config line 2: 'k' must be one of a, b, got 'nope'",
        ),
    ],
)
def test_typed_getter_messages(getter, args, message):
    cfg = Config(parse_config_text("[s]\nk = nope\n"))
    with pytest.raises(ConfigError) as err:
        getattr(cfg, getter)("s", "k", *args)
    assert str(err.value) == message


def test_required_key_missing():
    cfg = Config(parse_config_text("[plant]\nn = 1\n"))
    with pytest.raises(ConfigError, match="missing required key 'a_star'"):
        plant_from_config(cfg)


def test_plant_defaults_and_rejection():
    cfg = Config(parse_config_text("[plant]\nn = 2\na_star = 1.0, 3.0\neps = 0.1, 0.35\n"))
    p = plant_from_config(cfg)
    assert p.init_bounds == (1.0, 1.0)
    bad = Config(parse_config_text("[plant]\nn = 1\na_star = 1.0\neps = -0.5\n"))
    with pytest.raises(ConfigError, match="bad \\[plant\\]"):
        plant_from_config(bad)


def test_sweep_values_and_validation():
    cfg = Config(parse_config_text("[sweep]\nlambda_min=1.5\nlambda_max=2\nlambda_step=0.25\n"))
    assert sweep_from_config(cfg) == pytest.approx([1.5, 1.75, 2.0])
    bad = Config(parse_config_text("[sweep]\nlambda_min=2\nlambda_max=1\nlambda_step=0.1\n"))
    with pytest.raises(ConfigError):
        sweep_from_config(bad)


def test_fmt():
    assert fmt(None) == ""
    assert fmt(0.25) == "0.25"
    assert fmt(1.0741307612953883) == "1.0741307613"
    assert fmt(3) == "3"


# ---------------------------------------------------------------------------
# subcommands


def test_bounds_csv(tmp_path, capsys):
    cfg = write(tmp_path, "b.cfg", BOUNDS_CFG)
    out = tmp_path / "rates.csv"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == RATES_CSV_HEADER
    assert len(lines) == 4
    last = lines[-1].split(",")
    assert float(last[0]) == 2.0
    assert float(last[2]) == pytest.approx(necessary_rate(2.0, 0.1), rel=1e-10)
    assert int(last[4]) <= int(last[5])  # optimal never needs more levels
    assert last[6] and last[7]  # scalar comparison bounds populated
    assert last[8] == "" and last[9] == ""  # no schedule columns for bounds


def test_bounds_reruns_byte_identical(tmp_path):
    cfg = write(tmp_path, "b.cfg", BOUNDS_CFG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["bounds", "--config", cfg, "--out", str(out1)])
    main(["bounds", "--config", cfg, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_bounds_parallel_matches_serial(tmp_path):
    cfg = write(tmp_path, "b.cfg", BOUNDS_CFG)
    out1, out2 = tmp_path / "serial.csv", tmp_path / "par.csv"
    main(["bounds", "--config", cfg, "--out", str(out1), "--jobs", "1"])
    main(["bounds", "--config", cfg, "--out", str(out2), "--jobs", "2"])
    assert out1.read_bytes() == out2.read_bytes()


def test_schedule_adds_rate_and_notes(tmp_path, capsys):
    cfg = write(tmp_path, "b.cfg", BOUNDS_CFG)
    out = tmp_path / "sched.csv"
    rc = main(
        ["schedule", "--config", cfg, "--out", str(out), "--m-max", "4", "--n-max", "8"]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == RATES_CSV_HEADER
    row = lines[-1].split(",")
    r_nec, avg, m = float(row[2]), float(row[8]), int(row[9])
    assert r_nec < avg
    assert 1 <= m <= 4
    notes = capsys.readouterr().out
    assert "schedule=[" in notes and "(exact)" in notes


def test_quantizer_export(tmp_path):
    cfg = write(
        tmp_path,
        "q.cfg",
        "[plant]\nn = 1\na_star = 3.0\neps = 0.5\n\n[quantizer]\nN = 8\n",
    )
    out = tmp_path / "q.csv"
    assert main(["quantizer", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "l,h_l"
    ref = optimal_boundaries(3.0, 0.5, 8)
    assert len(lines) == 1 + len(ref.h)
    got = [float(line.split(",")[1]) for line in lines[1:]]
    assert got == pytest.approx(list(ref.h), abs=1e-12)


def test_quantizer_unknown_family_exits_2(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "q.cfg",
        "[plant]\nn = 1\na_star = 3.0\neps = 0.5\n\n[quantizer]\nN = 8\nfamily = fancy\n",
    )
    assert main(["quantizer", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == "config error: config line 8: 'family' must be one of optimal, uniform, got 'fancy'\n"


def test_simulate_single_trajectory(tmp_path, capsys):
    cfg = write(tmp_path, "s.cfg", SIM_CFG.format(instances=1))
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == TRAJECTORY_CSV_HEADER
    assert lines[-1] == "# verdict=stabilized"
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert "verdict: stabilized" in capsys.readouterr().out


def test_simulate_monte_carlo_summary(tmp_path, capsys):
    cfg = write(tmp_path, "s.cfg", SIM_CFG.format(instances=4))
    out = tmp_path / "runs.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "instance,verdict,steps,min_sigma_ratio"
    assert len(lines) == 5
    for line in lines[1:]:
        _, verdict, _, ratio = line.split(",")
        assert verdict == "stabilized"
        assert float(ratio) < 1e-6
    assert "instances=4" in capsys.readouterr().out


def test_simulate_seed_determinism(tmp_path):
    cfg = write(tmp_path, "s.cfg", SIM_CFG.format(instances=4))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    main(["simulate", "--config", cfg, "--out", str(out1)])
    main(["simulate", "--config", cfg, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# verification plumbing


def test_run_verification_small_subset():
    cases = [
        {"kind": "boundary_synthesis", "lam": 3.0, "eps": 0.5, "N": 3},
        {"kind": "equalization", "lam": 3.0, "eps": 0.5},
        {"kind": "encode_decode", "lam": 3.0, "eps": 0.5, "N": 4},
    ]
    rows = run_verification(cases, resolution=1e-3, seed=0)
    assert len(rows) == 4  # equalization yields optimal + uniform rows
    assert all(ok for *_, ok in rows)


def test_run_verification_rejects_empty():
    with pytest.raises(ValueError, match="no cases"):
        run_verification([])


def test_canonical_cases_cover_all_kinds():
    kinds = {c["kind"] for c in canonical_cases()}
    assert kinds == {
        "boundary_synthesis",
        "equalization",
        "relaxation_kkt",
        "encode_decode",
    }


# ---------------------------------------------------------------------------
# exit codes


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["bounds", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_plant_exits_2(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "bad.cfg",
        "[plant]\nn = 1\na_star = 2.0\neps = -0.1\n\n"
        "[sweep]\nlambda_min = 2\nlambda_max = 2\nlambda_step = 0.5\n",
    )
    assert main(["bounds", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "instances,line,message",
    [
        (1, "horizon = 0", "'horizon' must be at least 1, got 0"),
        (4, "horizon = 0", "'horizon' must be at least 1, got 0"),
        (1, "family = fancy", "'family' must be one of optimal, uniform, got 'fancy'"),
        (4, "instance_mode = corner", "'instance_mode' must be one of nominal, vertex, uniform"),
        (1, "init_mode = random", "'init_mode' must be one of endpoints, zero, uniform"),
        (4, "instances = 0", "'instances' must be at least 1, got 0"),
        (4, "instances = -3", "'instances' must be at least 1, got -3"),
    ],
)
def test_simulate_bad_key_exits_2(tmp_path, capsys, instances, line, message):
    text = SIM_CFG.format(instances=instances).replace("horizon = 120\n", "")
    cfg = write(tmp_path, "s.cfg", text + line + "\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "instances,plant,n_level,message",
    [
        (1, (1.1, 0.3), 4, "no optimal quantizer layout for sizes 4: need lambda_abs - eps_n > 1"),
        (4, (1.1, 0.3), 4, "no optimal quantizer layout for sizes 4: need lambda_abs - eps_n > 1"),
        # eps so small that r rounds to 1: no odd-N rate-equalizing layout
        (1, (3.0, 1e-16), 3, "no optimal quantizer layout for sizes 3: no rate-equalizing layout"),
    ],
)
def test_simulate_layout_error_exits_2(tmp_path, capsys, instances, plant, n_level, message):
    text = SIM_CFG.format(instances=instances)
    text = text.replace("a_star = 3.0\neps = 0.5", f"a_star = {plant[0]}\neps = {plant[1]}")
    text = text.replace("N = 8", f"N = {n_level}")
    cfg = write(tmp_path, "s.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "command,flags,extra,message",
    [
        ("schedule", ("--m-max", "0"), "", "'m_max' must be at least 1, got 0"),
        ("schedule", (), "[schedule]\nm_max = 0\n", "'m_max' must be at least 1, got 0"),
        ("schedule", ("--n-max", "0"), "", "'n_max' must be at least 2, got 0"),
        ("bounds", ("--n-max", "1"), "", "'n_max' must be at least 2, got 1"),
        ("schedule", ("--margin", "-0.5"), "", "'margin' must be in [0, 1), got -0.5"),
        ("schedule", ("--margin", "1.5"), "", "'margin' must be in [0, 1), got 1.5"),
        ("bounds", (), "[rates]\nmargin = 1.0\n", "'margin' must be in [0, 1), got 1.0"),
    ],
)
def test_rate_option_out_of_range_exits_2(tmp_path, capsys, command, flags, extra, message):
    cfg = write(tmp_path, "b.cfg", BOUNDS_CFG + extra)
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


def test_worker_count_clamped(monkeypatch):
    cpus = os.cpu_count() or 1
    assert worker_count(10**6) == cpus
    assert worker_count(0) == 1
    assert worker_count(-3) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert worker_count(3) == 3
    assert worker_count(64) == 4
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert worker_count(8) == 1


def test_schedule_certificate_failure_exits_1(tmp_path, capsys, monkeypatch):
    # float logs accept (2, 2, 2, 3) although the exact rate product is >= 1
    monkeypatch.setattr(
        rates,
        "_scalar_step_rates",
        lambda p, family, n_max: [(2, 1.0, 1.29), (3, math.log2(3.0), 0.4658336629106498)],
    )
    cfg = write(tmp_path, "b.cfg", BOUNDS_CFG)
    argv = ["schedule", "--config", cfg, "--m-max", "4", "--n-max", "3"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("schedule failed: schedule [2, 2, 2, 3]")
    assert "Traceback" not in err


def test_unknown_command_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x"])
