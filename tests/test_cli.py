"""Config parsing, CSV emission, determinism, and exit codes."""

import ast
import math
import os
import random
import re
import subprocess
import sys
from decimal import Decimal

import pytest

from quantstab import cli, loop, quantizer
from quantstab.cli import (
    Config,
    ConfigError,
    RATES_CSV_HEADER,
    TRAJECTORY_CSV_HEADER,
    fmt,
    main,
    parse_config_text,
    plant_from_config,
    run_verification,
    sweep_from_config,
    worker_count,
)
from quantstab.plant import DIVERGENCE_RATIO
from quantstab.quantizer import optimal_boundaries
from quantstab.rates import necessary_rate
from test_verify_frozen import FROZEN_CSV

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
    assert cfg.get_float("missing", "key", 2.5) == 2.5


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


PLANT_N1 = "[plant]\nn = 1\na_star = 3.0\neps = 0.5\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        # a misspelt key would run at the default horizon 500
        (
            "simulate",
            PLANT_N1 + "\n[simulate]\nhorizn = 5000\nN = 8\n",
            "config line 7: unknown key 'horizn' in [simulate]",
        ),
        # margin is read from [rates] alone: here it would run at margin 0
        (
            "schedule",
            BOUNDS_CFG + "\n[schedule]\nm_max = 4\nmargin = 0.1\n",
            "config line 14: unknown key 'margin' in [schedule]",
        ),
        # a section is named at its header, with or without keys
        ("bounds", BOUNDS_CFG + "\n[ratez]\nmargin = 0.1\n", "config line 12: unknown section [ratez]"),
        ("quantizer", PLANT_N1 + "[ extra ]\n\n[quantizer]\nN = 8\n", "config line 5: unknown section [extra]"),
    ],
    ids=["key", "key_of_another_section", "section", "empty_section"],
)
def test_unknown_key_or_section_exits_2_naming_its_line(command, text, message, tmp_path, capsys):
    cfg = write(tmp_path, "u.cfg", text)
    out = tmp_path / "u.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not out.exists()


def test_a_file_with_every_commands_sections_runs_each(tmp_path, capsys):
    shared = BOUNDS_CFG + "\n[rates]\nn_max = 32\nmargin = 0.0\n\n[schedule]\nm_max = 4\n"
    shared += "\n[simulate]\nN = 8\nhorizon = 40\n\n[quantizer]\nN = 8\n\n[verify]\nresolution = 0.01\n"
    alone = {
        "bounds": BOUNDS_CFG + "\n[rates]\nn_max = 32\n",
        "simulate": PLANT_N1.replace("3.0", "2.0").replace("0.5", "0.1") + "\n[simulate]\nN = 8\nhorizon = 40\n",
        "schedule": BOUNDS_CFG + "\n[schedule]\nm_max = 4\n",
        "quantizer": BOUNDS_CFG + "\n[quantizer]\nN = 8\n",
    }
    for command, text in alone.items():
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        assert main([command, "--config", write(tmp_path, "shared.cfg", shared), "--out", str(got)]) == 0
        assert main([command, "--config", write(tmp_path, "alone.cfg", text), "--out", str(want)]) == 0
        assert got.read_bytes() == want.read_bytes(), command
    capsys.readouterr()


def test_known_keys_are_the_keys_the_commands_read():
    # every cfg.get_*(section, key, ...) call in cli, a conditional section
    # counting as each of its two
    read = set()
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if isinstance(node, ast.Call) and isinstance(func, ast.Attribute) and func.attr.startswith("get_"):
            if isinstance(func.value, ast.Name) and func.value.id == "cfg":
                section, key = node.args[:2]
                names = (section.body, section.orelse) if isinstance(section, ast.IfExp) else (section,)
                read |= {(name.value, key.value) for name in names}
    assert read == {(section, key) for section, keys in cli.KNOWN_KEYS.items() for key in keys}


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


def test_sweep_length_is_capped():
    # 1 + 0.25 * j for j = 0..MAX_SWEEP_ROWS - 1 is exact in binary
    top = 1.0 + 0.25 * (cli.MAX_SWEEP_ROWS - 1)
    text = "[sweep]\nlambda_min=1\nlambda_max={}\nlambda_step=0.25\n"
    assert len(sweep_from_config(Config(parse_config_text(text.format(top))))) == cli.MAX_SWEEP_ROWS
    with pytest.raises(ConfigError, match="'lambda_step'"):
        sweep_from_config(Config(parse_config_text(text.format(top + 0.25))))


def bounds_lambdas(tmp_path, capsys, lo, hi, step):
    """The lambda column of `bounds` on BOUNDS_CFG's plant swept lo..hi by step."""
    text = re.sub(r"\[sweep\].*", f"[sweep]\nlambda_min = {lo}\nlambda_max = {hi}\nlambda_step = {step}\n", BOUNDS_CFG, flags=re.S)
    assert main(["bounds", "--config", write(tmp_path, "b.cfg", text), "--n-max", "2"]) == 0
    return [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]]


@pytest.mark.parametrize(
    "lo, hi, step, rows",
    [("644102.4", "644102.57", "0.01", 18), ("16384.238", "16385.688", "0.05", 30)],
)
def test_sweep_keeps_lambda_max_past_2_to_the_14(tmp_path, capsys, lo, hi, step, rows):
    # from lambda ~ 2^14 on, lo + j * step rounds more than 1e-12 past lambda_max
    got = bounds_lambdas(tmp_path, capsys, lo, hi, step)
    assert len(got) == rows and got[-1] == fmt(float(hi))


def test_sweep_holds_every_grid_point_up_to_lambda_max(tmp_path, capsys):
    # lo + j * step for each j with lo + j * step <= hi in exact decimals, for
    # lambda up to 1e7, with hi on the grid or off it by 1 % to 99 % of a step
    rng = random.Random(39)
    for _ in range(40):
        step = Decimal(rng.randint(1, 999)) / 10 ** rng.randint(1, 4)
        lo = Decimal(rng.randint(2000, 10**10)) / 1000
        k = rng.randint(0, 12)
        off = rng.choice((0, Decimal(rng.randint(1, 99)) / 100))
        hi = lo + (k + off) * step
        got = bounds_lambdas(tmp_path, capsys, lo, hi, step)
        assert got == [fmt(float(lo + j * step)) for j in range(k + 1)], (lo, hi, step)


@pytest.mark.parametrize("command", ["bounds", "schedule"])
def test_tiny_sweep_step_exits_2_before_building_the_sweep(tmp_path, capsys, command):
    # 2e9 points at this step: the sweep must be refused, not built
    text = BOUNDS_CFG.replace("lambda_min = 1.5", "lambda_min = 1.0").replace(
        "lambda_max = 2.0", "lambda_max = 3.0"
    ).replace("lambda_step = 0.25", "lambda_step = 1e-9")
    cfg = write(tmp_path, "b.cfg", text)
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"config error: 'lambda_step' = 1e-09 gives more than {cli.MAX_SWEEP_ROWS} sweep points\n"
    )
    assert not out.exists()


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


# an n = 2 sweep whose every schedule row comes from the heuristic search
SCHEDULE_N2_CFG = """\
[plant]
n = 2
a_star = 0.3, 2.0
eps = 0.02, 0.2

[sweep]
lambda_min = 2.0
lambda_max = 2.6
lambda_step = 0.1
"""


@pytest.mark.parametrize(
    "command, text",
    [("bounds", BOUNDS_CFG), ("schedule", SCHEDULE_N2_CFG)],
    ids=["bounds", "schedule"],
)
def test_sweep_parallel_matches_serial(tmp_path, capsys, command, text):
    # --jobs 2 takes the process pool, which must give the same rows and notes
    cfg = write(tmp_path, "s.cfg", text)
    got = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main([command, "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
        got.append((out.read_bytes(), capsys.readouterr()))
    assert got[0] == got[1]
    if command == "schedule":
        assert got[0][1].out.count("(heuristic)") == 7


def test_main_reuses_one_parser_across_requests(tmp_path, capsys):
    bounds_cfg = write(tmp_path, "b.cfg", BOUNDS_CFG)
    quant_cfg = write(
        tmp_path, "q.cfg", "[plant]\nn = 1\na_star = 3.0\neps = 0.5\n\n[quantizer]\nN = 4\n"
    )
    first = tmp_path / "first.csv"
    assert main(["bounds", "--config", bounds_cfg, "--out", str(first)]) == 0
    parser = cli.build_parser()
    assert main(["quantizer", "--config", quant_cfg, "--out", str(tmp_path / "q.csv")]) == 0
    sched = tmp_path / "sched.csv"
    assert main(["schedule", "--config", bounds_cfg, "--out", str(sched), "--m-max", "3"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--config", bounds_cfg, "--m-maxx", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: quantstab ")
    assert "unrecognized arguments: --m-maxx 3" in captured.err
    # the failed parse left the shared parser as it was
    again = tmp_path / "again.csv"
    assert main(["bounds", "--config", bounds_cfg, "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
    assert "m_best" in sched.read_text().splitlines()[0]
    assert cli.build_parser() is parser


def test_command_lines_the_reader_hands_on_parse_as_before(tmp_path, capsys):
    # an abbreviated flag, --flag=value and options before the command are
    # argparse's to read: each still runs, to the same bytes
    cfg = write(tmp_path, "b.cfg", BOUNDS_CFG)
    want = tmp_path / "want.csv"
    assert main(["bounds", "--config", cfg, "--out", str(want)]) == 0
    outs = [tmp_path / f"{i}.csv" for i in range(3)]
    for argv in (
        ["bounds", "--conf", cfg, "--out", str(outs[0])],
        ["bounds", "--config", cfg, f"--out={outs[1]}"],
        ["--config", cfg, "--out", str(outs[2]), "bounds"],
    ):
        assert cli._read_argv(argv) is None
        assert main(argv) == 0, argv
    assert {out.read_bytes() for out in outs} == {want.read_bytes()}


def test_negative_flag_values_reach_the_config_limits(tmp_path, capsys):
    # a value starting with '-' is handed on; argparse reads it as a number,
    # which the LIMITS rule of its key refuses
    bounds_cfg = write(tmp_path, "b.cfg", BOUNDS_CFG)
    sim_cfg = write(tmp_path, "s.cfg", SIM_CFG.format(instances=1))
    assert main(["bounds", "--config", bounds_cfg, "--margin", "-0.5"]) == 2
    assert capsys.readouterr().err == "config error: 'margin' must be in [0, 1), got -0.5\n"
    assert main(["simulate", "--config", sim_cfg, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: 'seed' must be at least 0, got -1\n"


@pytest.mark.parametrize(
    "argv, code",
    [(["-h"], 0), (["bounds", "--config", "b.cfg", "--seed", "x"], 2), (["bounds", "--out", "o.csv"], 2)],
    ids=["help", "seed_not_an_integer", "missing_config"],
)
def test_help_and_usage_errors_print_argparse_usage(argv, code, capsys):
    assert cli._read_argv(argv) is None
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert (captured.out if code == 0 else captured.err).startswith("usage: quantstab ")


def test_main_without_argv_reads_sys_argv_through_the_reader(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, "b.cfg", BOUNDS_CFG)
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    assert main(["bounds", "--config", cfg, "--out", str(want)]) == 0
    monkeypatch.setattr(sys, "argv", ["quantstab", "bounds", "--config", cfg, "--out", str(got)])
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("the reader handed on"))
    assert main() == 0
    assert got.read_bytes() == want.read_bytes()


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


MARGIN_CFG = """\
[plant]
n = 1
a_star = 2.0
eps = 0.35

[sweep]
lambda_min = 1.5
lambda_max = 3.0
lambda_step = 0.25
"""


@pytest.mark.parametrize(
    "command,flags,first_row",
    [
        (
            "bounds",
            (),
            "1.5,0.35,0.857747223046,0.887525270742,6,8,,1.20645087747,,",
        ),
        (
            "schedule",
            ("--m-max", "1"),
            "1.5,0.35,0.857747223046,0.887525270742,6,8,,1.20645087747,2.58496250072,1",
        ),
    ],
    ids=["bounds", "schedule"],
)
def test_margin_certifies_sufficient_sizes(tmp_path, capsys, command, flags, first_row):
    # at margin 0.5 the smallest certified static size at lambda = 1.5 is 6, the
    # size of the best one-slot schedule; at margin 0 it would be 2
    cfg = write(tmp_path, "m.cfg", MARGIN_CFG)
    out = tmp_path / "m.csv"
    argv = [command, "--config", cfg, "--out", str(out), "--margin", "0.5", *flags]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == first_row
    for line in lines[1:]:
        row = line.split(",")
        assert int(row[4]) <= int(row[5])
        if row[8]:
            assert float(row[8]) <= math.log2(int(row[4])) + 1e-9
    assert capsys.readouterr().err == ""


def test_margin_next_to_one_on_a_high_order_plant(tmp_path, capsys):
    # (1 - margin)^i underflows for i = 21: the rescale divides exactly
    # instead of by zero, and no size is certified within the cap
    zeros = ", ".join(["0.0"] * 20)
    cfg = write(
        tmp_path,
        "n21.cfg",
        f"[plant]\nn = 21\na_star = {zeros}, 2.0\neps = {zeros}, 0.3\n\n"
        "[sweep]\nlambda_min = 2.0\nlambda_max = 2.0\nlambda_step = 0.1\n",
    )
    out = tmp_path / "n21.csv"
    margin = repr(1.0 - 2.0**-53)
    argv = ["bounds", "--config", cfg, "--out", str(out), "--n-max", "4", "--margin", margin]
    assert main(argv) == 0
    assert out.read_text().splitlines()[1] == "2,0.3,1.23872018237,1.20163386117,,,,,,"
    assert capsys.readouterr().err == ""


N21_PLANT = "n = 21\na_star = {0}, 2.0\neps = {0}, 0.3".format(", ".join(["0.0"] * 20))


@pytest.mark.parametrize(
    "plant,lam,flags,row",
    [
        (
            N21_PLANT,
            "2",
            ("--m-max", "3", "--n-max", "6"),
            "2,0.3,1.23872018237,1.20163386117,,,,,,",
        ),
        (
            "n = 1\na_star = 3.0\neps = 0.35",
            "3",
            ("--m-max", "8"),
            "3,0.35,1.87798412281,1.74416109557,,,,2.20645087747,,",
        ),
    ],
    ids=["n21", "n1"],
)
def test_margin_next_to_one_schedule_finds_none(tmp_path, capsys, plant, lam, flags, row):
    # no schedule contracts by z = 2^-53 per step. The n = 1 rescaled rates
    # w 2^53 are far above 1; the n = 21 plant's w_21 2^1113 is past the
    # float range, so N_suf reads it exactly and the search leaves it out
    sweep = f"[sweep]\nlambda_min = {lam}\nlambda_max = {lam}\nlambda_step = 0.1\n"
    cfg = write(tmp_path, "s.cfg", f"[plant]\n{plant}\n\n{sweep}")
    out = tmp_path / "s.csv"
    margin = repr(1.0 - 2.0**-53)
    assert main(["schedule", "--config", cfg, "--out", str(out), *flags, "--margin", margin]) == 0
    assert out.read_text().splitlines()[1] == row
    captured = capsys.readouterr()
    assert captured.out == f"lambda={lam} schedule=not-found\n"
    assert captured.err == ""


def test_margin_is_a_contraction_per_step_for_every_period(tmp_path, capsys):
    # margin 0.5 asks rho(P) < 0.5^m of an m-slot period, so longer periods
    # cannot dilute it: the best average falls with m_max but stays near
    # the static 2.585 bits, far above the margin-0 optimum of 1 bit
    plant = "[plant]\nn = 1\na_star = 2.0\neps = 0.35\n\n"
    sweep = "[sweep]\nlambda_min = 1.5\nlambda_max = 1.5\nlambda_step = 0.1\n"
    cfg = write(tmp_path, "m.cfg", plant + sweep)
    out = tmp_path / "m.csv"
    rows = []
    for m_max in ("1", "2", "32"):
        argv = ["schedule", "--config", cfg, "--out", str(out), "--m-max", m_max]
        assert main([*argv, "--margin", "0.5"]) == 0
        rows.append(out.read_text().splitlines()[1])
    prefix = "1.5,0.35,0.857747223046,0.887525270742,6,8,,1.20645087747,"
    assert rows == [
        prefix + "2.58496250072,1",
        prefix + "2.40367746103,2",
        prefix + "2.36170843693,30",
    ]
    six = ", ".join(["6"] * 18)
    assert capsys.readouterr().out.splitlines() == [
        "lambda=1.5 schedule=[6] (exact)",
        "lambda=1.5 schedule=[4, 7] (exact)",
        f"lambda=1.5 schedule=[{', '.join(['4'] * 11)}, 5, {six}] (exact)",
    ]


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


def test_simulate_zero_width_prediction_stabilizes(tmp_path, capsys):
    # a = 0 exactly: the first prediction is the point {0}, so the next output
    # is known and the run ends stabilized instead of dividing by a zero scaling
    cfg = write(
        tmp_path,
        "z.cfg",
        "[plant]\nn = 1\na_star = 0.0\neps = 0.0\n\n[simulate]\nN = 4\nfamily = uniform\n",
    )
    out = tmp_path / "z.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text() == (
        "k,y,s,sigma,Y_lo,Y_hi,u\n"
        "0,-0.101522362377,2,2,-0.5,0,-0\n"
        "# verdict=stabilized\n"
    )
    assert capsys.readouterr() == ("verdict: stabilized\n", "")


# a* = 3 and N = 3 keep the scaling level, so a run takes every step of its
# horizon and writes horizon + 1 sample rows
LEVEL_RUN = "[plant]\nn = 1\na_star = 3.0\neps = 0.0\n\n[simulate]\nN = 3\nhorizon = {horizon}\n"


CHUNK = cli.CSV_CHUNK_ROWS


# lines per write: the header rides on the first chunk and the verdict on the last
@pytest.mark.parametrize(
    "extra,writes",
    [(-1, [1 + CHUNK, CHUNK - 1 + 1]), (0, [1 + CHUNK, CHUNK + 1]), (1, [1 + CHUNK, CHUNK, 1 + 1])],
)
def test_chunked_trajectory_csv_equals_one_join(tmp_path, capsys, extra, writes):
    rows = 2 * CHUNK + extra
    cfg = write(tmp_path, "t.cfg", LEVEL_RUN.format(horizon=rows - 1))
    p = plant_from_config(cli.load_config(cfg))
    setup = loop._Setup(p, cli.Schedule((3,)), "optimal")
    # want is built from a recorded run's sample tuples, the chunks from the
    # rows that the command's run formats in its steps
    verdict, _, traj = cli._sim_one(
        setup, rows - 1, "uniform", 0, [0, 0, 0], "uniform", [0, 0, 1], True
    )
    assert len(traj.samples) == rows
    want = "\n".join(
        [TRAJECTORY_CSV_HEADER]
        + [
            f"{k},{fmt(y)},{s},{fmt(sigma)},{fmt(e_lo)},{fmt(e_hi)},{fmt(u)}"
            for k, (y, s, sigma, e_lo, e_hi, _, _, u) in enumerate(traj.samples)
        ]
        + [f"# verdict={verdict}"]
    ) + "\n"
    _, _, row_traj = cli._sim_one(
        setup, rows - 1, "uniform", 0, [0, 0, 0], "uniform", [0, 0, 1], cli._TRAJECTORY_ROW
    )
    assert [len(c) for c in cli._trajectory_chunks(row_traj.samples, verdict)] == writes
    out = tmp_path / "t.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == want.encode()
    assert capsys.readouterr() == (f"verdict: {verdict}\n", "")
    assert main(["simulate", "--config", cfg]) == 0
    assert capsys.readouterr() == (want + f"verdict: {verdict}\n", "")


def test_run_raising_past_a_chunk_exits_1_and_writes_nothing(tmp_path, capsys):
    # the scaling grows 1.01-fold a step from twice the largest initial
    # bound and the output overflows at step 2708, before the scaling passes
    # DIVERGENCE_RATIO times its first, and past the first CSV_CHUNK_ROWS
    # rows: no row is written before the run ends, so no --out file is
    # left, and stdout stays empty
    cfg = write(
        tmp_path,
        "o.cfg",
        f"[plant]\nn = 1\na_star = 3.03\neps = 0.0\ninit_bounds = {cli.MAX_INIT_BOUND!r}\n\n"
        "[simulate]\nN = 3\nfamily = uniform\nhorizon = 5000\n",
    )
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "run failed: step 2708: the output overflowed to inf\n")
    assert 2708 > CHUNK and not out.exists()
    assert main(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().out == ""


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


# a* = 1e300: the first products overflow, and their nan makes a malformed set
OVERFLOW_PLANT = "[plant]\nn = 1\na_star = 1e300\neps = 0\ninit_bounds = 1e10\n\n"
OVERFLOW_RUN = "[simulate]\nN = 4\nfamily = uniform\ninit_mode = endpoints\nhorizon = 50\n"


def test_simulate_run_that_raises_exits_1_with_one_line(tmp_path, capsys):
    cfg = write(tmp_path, "o.cfg", OVERFLOW_PLANT + OVERFLOW_RUN)
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "run failed: malformed interval: lo=nan > hi=nan\n")
    assert not out.exists()


def test_simulate_batch_marks_a_run_that_raises_failed(tmp_path, capsys):
    cfg = write(tmp_path, "o.cfg", OVERFLOW_PLANT + OVERFLOW_RUN + "instances = 2\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert out.read_text() == "instance,verdict,steps,min_sigma_ratio\n0,failed,,\n1,failed,,\n"
    assert capsys.readouterr() == (
        "instances=2 failed=2\n",
        "instance 0 failed: malformed interval: lo=nan > hi=nan\n"
        "instance 1 failed: malformed interval: lo=nan > hi=nan\n",
    )


def test_simulate_batch_builds_its_loop_set_up_once(tmp_path, monkeypatch):
    # the quantizers' expansion rates depend only on the plant and the
    # schedule, so a 24-instance batch computes them once per schedule slot
    calls = {}

    def counting(fn):
        def wrapped(*args):
            calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
            return fn(*args)

        return wrapped

    for name in ("expansion_profile", "coefficient_expansion_rates"):
        monkeypatch.setattr(loop, name, counting(getattr(loop, name)))
    text = SIM_CFG.format(instances=24).replace("N = 8", "sizes = 8, 4, 16")
    cfg = write(tmp_path, "s.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "runs.csv")]) == 0
    assert calls == {"expansion_profile": 3, "coefficient_expansion_rates": 3}


# ---------------------------------------------------------------------------
# verification plumbing


def test_run_verification_walks_the_frozen_grid():
    # the frozen CSV lists every check of every kind, in grid order
    rows = run_verification(resolution=1e-3, seed=0)
    frozen = FROZEN_CSV["1e-3"].splitlines()[1:]
    assert len(rows) == len(frozen) == 59
    assert [name for name, *_ in rows] == [line.split(",")[0] for line in frozen]
    assert all(ok for *_, ok in rows)


# ---------------------------------------------------------------------------
# exit codes


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["bounds", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"[plant]\nn = 1\na_star = 2.0\xff\neps = 0.1\n")
    assert main(["bounds", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {cfg}: ") and err.count("\n") == 1


def test_config_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    # as Windows Notepad saves UTF-8
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(BOUNDS_CFG.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + BOUNDS_CFG.encode("utf-8"))
    outs = []
    for cfg in (plain, marked):
        outs.append(tmp_path / f"{cfg.stem}.csv")
        assert main(["bounds", "--config", str(cfg), "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert capsys.readouterr().err == ""


UNWRITABLE_OUT_RUNS = {
    "bounds": ("bounds", BOUNDS_CFG),
    "schedule": ("schedule", BOUNDS_CFG),
    "simulate": ("simulate", SIM_CFG.format(instances=1)),
    "simulate_batch": ("simulate", SIM_CFG.format(instances=4)),
    "quantizer": ("quantizer", "[plant]\nn = 1\na_star = 3.0\neps = 0.5\n\n[quantizer]\nN = 8\n"),
    "verify": ("verify", "[verify]\nresolution = 0.01\n"),
}


@pytest.mark.parametrize(
    "target",
    [
        "missing/o.csv",
        ".",
        pytest.param("/dev/full", marks=pytest.mark.skipif(
            not os.path.exists("/dev/full"), reason="no /dev/full here")),
    ],
    ids=["missing_dir", "directory", "dev_full"],
)
@pytest.mark.parametrize("run", sorted(UNWRITABLE_OUT_RUNS))
def test_unwritable_out_exits_2(tmp_path, capsys, run, target):
    # opening, writing or closing --out fails after the run: one stderr line
    # names the path, as a config file that cannot be read does
    command, text = UNWRITABLE_OUT_RUNS[run]
    cfg = write(tmp_path, "run.cfg", text)
    out = str(tmp_path / target)
    assert main([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output {out}: ")
    assert err.count("\n") == 1


class _FullStdout:
    """A stdout that fails as /dev/full does: on write, or only on flush."""

    def __init__(self, on_write):
        self.on_write, self.written = on_write, []

    def write(self, text):
        if self.on_write:
            raise OSError(28, "No space left on device")
        self.written.append(text)
        return len(text)

    def flush(self):
        if self.written:
            raise OSError(28, "No space left on device")


@pytest.mark.parametrize("on_write", [True, False], ids=["write", "flush"])
@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("run", sorted(UNWRITABLE_OUT_RUNS))
def test_unwritable_stdout_exits_2(tmp_path, capsys, monkeypatch, run, out, on_write):
    # the CSV goes to stdout, or only the notes and summary lines do: a write or
    # flush that fails there gives one stderr line, as an unwritable --out does
    command, text = UNWRITABLE_OUT_RUNS[run]
    argv = [command, "--config", write(tmp_path, "run.cfg", text)]
    argv += ["--out", str(tmp_path / "o.csv")] if out else []
    assert main(argv) == 0
    if not capsys.readouterr().out:
        assert out  # this run writes nothing else to stdout
        return
    monkeypatch.setattr(sys, "stdout", _FullStdout(on_write))
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: cannot write output <stdout>: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("run,out", [("bounds", False), ("schedule", False), ("schedule", True)])
def test_stdout_on_dev_full_exits_2_with_no_traceback(tmp_path, run, out):
    # in a fresh interpreter, whose exit flush must find nothing left to write:
    # no "Exception ignored" line and no exit code 120
    command, text = UNWRITABLE_OUT_RUNS[run]
    argv = [command, "--config", write(tmp_path, "run.cfg", text)]
    argv += ["--out", str(tmp_path / "o.csv")] if out else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "quantstab.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert done.returncode == 2, done.stderr
    assert done.stderr == (
        "config error: cannot write output <stdout>: [Errno 28] No space left on device\n")


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
    text = SIM_CFG.format(instances=instances).replace("horizon = 120\n", "") + line + "\n"
    cfg = write(tmp_path, "s.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    # the bad key is the last line of the file
    assert err.startswith(f"config error: config line {len(text.splitlines())}: {message}")
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


@pytest.mark.parametrize("instances", [1, 3], ids=["single", "batch"])
@pytest.mark.parametrize(
    "plant,box",
    [
        # |a*| + eps is finite, but the box width hi - lo overflows
        ("n = 1\na_star = 0.0\neps = 1e308", "a_1 is [-1e+308, 1e+308]"),
        ("n = 2\na_star = 0.0, 3.0\neps = 1e308, 0.5", "a_1 is [-1e+308, 1e+308]"),
    ],
    ids=["n1", "n2"],
)
def test_simulate_uniform_draw_from_a_box_wider_than_floats_exits_2(
    tmp_path, capsys, instances, plant, box
):
    text = SIM_CFG.format(instances=instances)
    text = text.replace("n = 1\na_star = 3.0\neps = 0.5", plant).replace("N = 8", "N = 4")
    text += "family = uniform\ninstance_mode = uniform\n"
    cfg = write(tmp_path, "s.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    message = (
        "instance_mode = uniform needs each coefficient box narrower than the float "
        f"range; the box of {box}"
    )
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "sizes,message",
    [
        ("1", "every slot needs at least 2 levels"),
        (",", "schedule must have at least one slot"),
    ],
)
def test_simulate_bad_schedule_sizes_exit_2(tmp_path, capsys, sizes, message):
    text = SIM_CFG.format(instances=1).replace("N = 8", f"sizes = {sizes}")
    cfg = write(tmp_path, "s.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr() == ("", f"config error: bad schedule sizes: {message}\n")
    assert not (tmp_path / "o.csv").exists()


def test_layout_error_on_a_long_size_list_names_its_head_and_count(tmp_path, capsys):
    # at r = 1.1/1.5, 1 - r^l rounds to 1 long before l = 512, so the
    # 1024-level boundaries stop increasing; 8 of the 256 sizes are printed
    sizes = ", ".join(["1024"] * cli.MAX_M_MAX)
    text = f"[plant]\nn = 1\na_star = 1.3\neps = 0.2\n\n[simulate]\nsizes = {sizes}\nhorizon = 1\n"
    assert main(["simulate", "--config", write(tmp_path, "long.cfg", text)]) == 2
    head = ", ".join(["1024"] * cli.SHOWN)
    message = (
        f"no optimal quantizer layout for sizes {head}, ... ({cli.MAX_M_MAX} entries): "
        "boundaries must be strictly increasing"
    )
    assert capsys.readouterr() == ("", f"config error: {message}\n")


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
        ("schedule", ("--m-max", "257"), "", "'m_max' must be at most 256, got 257"),
        ("schedule", (), "[schedule]\nm_max = 257\n", "'m_max' must be at most 256, got 257"),
        ("schedule", ("--n-max", "1025"), "", "'n_max' must be at most 1024, got 1025"),
        ("schedule", (), "[schedule]\nn_max = 1025\n", "'n_max' must be at most 1024, got 1025"),
        ("bounds", ("--n-max", "1025"), "", "'n_max' must be at most 1024, got 1025"),
        ("bounds", (), "[rates]\nn_max = 1025\n", "'n_max' must be at most 1024, got 1025"),
    ],
)
def test_rate_option_out_of_range_exits_2(tmp_path, capsys, command, flags, extra, message):
    text = BOUNDS_CFG + extra
    cfg = write(tmp_path, "b.cfg", text)
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == 2
    # a value from the file names its line, the last one; a flag's value has none
    where = f"config line {len(text.splitlines())}: " if extra else ""
    assert capsys.readouterr().err == f"config error: {where}{message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flags,extra",
    [
        ("schedule", ("--m-max", "256", "--n-max", "1024"), ""),
        ("schedule", (), "[schedule]\nm_max = 256\nn_max = 1024\n"),
        ("bounds", ("--n-max", "1024"), ""),
        ("bounds", (), "[rates]\nn_max = 1024\n"),
    ],
)
def test_rate_option_at_its_cap_accepted(tmp_path, capsys, command, flags, extra):
    # at lambda = 1.5 size 2 already contracts, so both caps cost little
    text = BOUNDS_CFG.replace("lambda_max = 2.0", "lambda_max = 1.5") + extra
    cfg = write(tmp_path, "b.cfg", text)
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == 0
    assert capsys.readouterr().err == ""
    row = out.read_text(encoding="utf-8").splitlines()[1].split(",")
    assert row[:2] == ["1.5", "0.1"] and row[4:6] == ["2", "2"]
    assert row[8:] == (["1", "1"] if command == "schedule" else ["", ""])


@pytest.mark.parametrize(
    "key,value",
    [("lambda_step", "nan"), ("lambda_min", "nan"), ("lambda_max", "inf")],
)
def test_non_finite_sweep_value_exits_2(tmp_path, capsys, key, value):
    text = re.sub(rf"{key} = .*\n", f"{key} = {value}\n", BOUNDS_CFG)
    cfg = write(tmp_path, "b.cfg", text)
    out = tmp_path / "o.csv"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 2
    line = text.splitlines().index(f"{key} = {value}") + 1
    message = f"config line {line}: '{key}' must be finite, got {float(value)!r}"
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flags,extra,message",
    [
        ("simulate", ("--seed", "-1"), "", "'seed' must be at least 0, got -1"),
        ("simulate", (), "seed = -3\n", "'seed' must be at least 0, got -3"),
        ("verify", ("--seed", "-1"), "", "'seed' must be at least 0, got -1"),
        ("verify", (), "seed = -3\n", "'seed' must be at least 0, got -3"),
        ("verify", (), "resolution = 0.5\n", "'resolution' must be in [0.0002, 0.01], got 0.5"),
        ("verify", (), "resolution = nan\n", "'resolution' must be in [0.0002, 0.01], got nan"),
    ],
)
def test_seed_and_resolution_out_of_range_exit_2(
    tmp_path, capsys, command, flags, extra, message
):
    # a repeated [simulate] header adds to the section: seed = -3 replaces 7
    text = SIM_CFG.format(instances=1) + f"\n[{command}]\n{extra}"
    cfg = write(tmp_path, "s.cfg", text)
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == 2
    # a value from the file names its line, the last one; a flag's value has none
    where = f"config line {len(text.splitlines())}: " if extra else ""
    assert capsys.readouterr().err == f"config error: {where}{message}\n"
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


KNOWN_PLANT_CFG = """\
[plant]
n = 1
a_star = 4.0
eps = 0.0

[sweep]
lambda_min = 4.0
lambda_max = 4.0
lambda_step = 1.0
"""


def test_schedule_known_integer_pole_exits_0(tmp_path, capsys):
    # rate products exactly 1, such as (2, 2, 2, 8, 16) at lambda = 4, are
    # rejected exactly inside the search, not by the certificate afterwards
    cfg = write(tmp_path, "k.cfg", KNOWN_PLANT_CFG)
    out = tmp_path / "k.csv"
    assert main(["schedule", "--config", cfg, "--out", str(out), "--m-max", "8"]) == 0
    assert "(exact)" in capsys.readouterr().out
    row = out.read_text().splitlines()[1].split(",")
    assert 2.0 < float(row[8]) < 2.0 + 1e-3


@pytest.mark.parametrize(
    "plant, optimal",
    [
        # N_suf_opt = 3, then the exact search reads the same table on to
        # 8: at --m-max 4 no size past 8 can be in a schedule that ties
        # the seeds of sizes 2..8, so size 9 is never built
        ("n = 1\na_star = 2.0\neps = 0.35", range(2, 9)),
        # N_suf_opt = 3, then the heuristic reads the same table on to its
        # candidates up to static + 4 = 7
        ("n = 2\na_star = 0.3, 2.2\neps = 0.02, 0.2", range(2, 8)),
    ],
    ids=["n1", "n2"],
)
def test_schedule_row_builds_each_quantizer_once(tmp_path, monkeypatch, plant, optimal):
    # a row builds each size it reads once, every boundary half from the one
    # shared layout helper: N_suf_uni = 3 reads the uniform sizes 2..3, and
    # N_suf_opt and the search share one read of the optimal table
    built = {}
    real = quantizer.Layouts.half

    def counting_half(layouts, n_level):
        family = "uniform" if layouts is quantizer.UNIFORM else "optimal"
        built[family, n_level] = built.get((family, n_level), 0) + 1
        return real(layouts, n_level)

    monkeypatch.setattr(quantizer.Layouts, "half", counting_half)
    sweep = "[sweep]\nlambda_min = 2.2\nlambda_max = 2.2\nlambda_step = 0.1\n"
    cfg = write(tmp_path, "one.cfg", f"[plant]\n{plant}\n\n{sweep}")
    argv = ["schedule", "--config", cfg, "--out", str(tmp_path / "one.csv"), "--m-max", "4"]
    assert main(argv) == 0
    want = {("uniform", 2): 1, ("uniform", 3): 1}
    want.update((("optimal", N), 1) for N in optimal)
    assert built == want


def test_trajectory_row_format_matches_fmt():
    # a simulate row is one %-format call; it must give fmt's text on every float
    edges = [
        -0.0,
        0.0,
        math.inf,
        -math.inf,
        math.nan,
        5e-324,
        1e300,
        0.1 + 0.2,
        1.9999999999995,  # rounds up at the 12th significant digit
        -123456789012.5,  # a tie at the 12th significant digit
        3.0,  # integer-valued
        -1e15,
    ]
    for k, y in enumerate(edges):
        sigma, e_lo, e_hi, u = (edges[(k + j) % len(edges)] for j in (3, 5, 7, 9))
        s = k % 4 + 1
        want = f"{k},{fmt(y)},{s},{fmt(sigma)},{fmt(e_lo)},{fmt(e_hi)},{fmt(u)}"
        assert cli._TRAJECTORY_ROW % (k, y, s, sigma, e_lo, e_hi, u) == want
    assert cli._TRAJECTORY_ROW % (0, -0.0, 2, 0.1 + 0.2, 5e-324, 1.9999999999995, 3.0) == (
        "0,-0,2,0.3,4.94065645841e-324,2,3"
    )


def test_unknown_command_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x"])


# eps so small against lambda that r = (lambda - eps)/(lambda + eps) rounds to
# 1.0: even sizes take the uniform layout, lambda/N and log2(lambda), the
# eps -> 0 limits, instead of dividing by 1 - r^K = 0
TINY_EPS_PLANT = "[plant]\nn = 1\na_star = 3.0\neps = 1e-16\n\n"

TINY_EPS_CASES = {
    "quantizer": (
        "[quantizer]\nN = 4\n",
        "l,h_l\n0,0\n1,0.25\n2,0.5\n",
        "",
    ),
    "simulate": (
        "[simulate]\nN = 4\nhorizon = 6\n",
        "k,y,s,sigma,Y_lo,Y_hi,u\n"
        "0,-0.101522362377,2,2,-0.5,0,0.75\n"
        "1,0.44543291287,4,1.5,0.375,0.75,-1.6875\n"
        "2,-0.35120126139,1,1.125,-0.5625,-0.28125,1.265625\n"
        "3,0.21202121583,4,0.84375,0.2109375,0.421875,-0.94921875\n"
        "4,-0.31315510251,1,0.6328125,-0.31640625,-0.158203125,0.7119140625\n"
        "5,-0.22755124503,1,0.474609375,-0.2373046875,-0.11865234375,0.533935546875\n"
        "6,-0.148718188214,1,0.35595703125,-0.177978515625,-0.0889892578125,0.400451660156\n"
        "# verdict=horizon_exhausted\n",
        "verdict: horizon_exhausted\n",
    ),
    "bounds": (
        "[sweep]\nlambda_min = 3.0\nlambda_max = 3.0\nlambda_step = 0.1\n",
        "lambda,eps,R_nec,R_known_max,N_suf_opt,N_suf_uni,"
        "R_suf_phat,R_suf_martins,avg_rate_best,m_best\n"
        "3,1e-16,1.58496250072,1.58496250072,4,4,1.58496250072,1.58496250072,,\n",
        "",
    ),
}


@pytest.mark.parametrize("command", sorted(TINY_EPS_CASES))
def test_eps_rounding_r_to_one_takes_known_plant_limit(tmp_path, capsys, command):
    section, csv, stdout = TINY_EPS_CASES[command]
    cfg = write(tmp_path, "tiny.cfg", TINY_EPS_PLANT + section)
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text() == csv
    assert capsys.readouterr() == (stdout, "")


@pytest.mark.parametrize("command", sorted(TINY_EPS_CASES))
def test_csv_without_out_goes_to_stdout(tmp_path, capsys, command):
    # the same bytes as the --out file, then the command's own stdout lines
    section, _, stdout = TINY_EPS_CASES[command]
    cfg = write(tmp_path, "tiny.cfg", TINY_EPS_PLANT + section)
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main([command, "--config", cfg]) == 0
    assert capsys.readouterr() == (out.read_text(encoding="utf-8") + stdout, "")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["a_star", "eps", "init_bounds"])
def test_non_finite_plant_number_exits_2(tmp_path, capsys, key, value):
    plant = {"a_star": "3.0", "eps": "0.2", "init_bounds": "1.0"}
    plant[key] = value
    text = "[plant]\nn = 1\n" + "".join(f"{k} = {v}\n" for k, v in plant.items())
    cfg = write(tmp_path, "nf.cfg", text + "\n[simulate]\nN = 4\nfamily = uniform\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"config error: bad [plant] section: {key} entries must be finite, "
        f"got ({float(value)},)\n"
    )
    assert not out.exists()


# ---------------------------------------------------------------------------
# input limits

ZERO_PLANT = "[plant]\nn = 1\na_star = 0.0\neps = 0.0\n\n"  # every run stops at step 0


def _zero_plant(n):
    """A zero plant of order n: every run stops at step 0, as with ZERO_PLANT."""
    zeros = ", ".join(["0.0"] * n)
    return f"[plant]\nn = {n}\na_star = {zeros}\neps = {zeros}\n\n"


# steps weighted by max(n, 4): n = 24 runs at most 33 333 = 3 x 11 111 steps
ORDER_24_STEPS = "[simulate]\nN = 4\nfamily = uniform\nhorizon = {}\ninstances = 3\n"


def _order_plant(n):
    zeros = ", ".join(["0.0"] * (n - 1))
    return f"[plant]\nn = {n}\na_star = {zeros}, 2.0\neps = {zeros}, 0.1\n\n"


PAST_LIMIT_CASES = {
    "order": (
        "quantizer",
        _order_plant(cli.MAX_ORDER + 1) + "[quantizer]\nN = 4\n",
        2,
        f"'n' must be at most {cli.MAX_ORDER}, got {cli.MAX_ORDER + 1}",
    ),
    # (1.0,) * n of the default init_bounds would not fit in memory
    "order_huge": (
        "simulate",
        "[plant]\nn = 10000000000000\na_star = 2.0\neps = 0.1\n\n[simulate]\nN = 4\n",
        2,
        f"'n' must be at most {cli.MAX_ORDER}, got 10000000000000",
    ),
    "quantizer_N": (
        "quantizer",
        ZERO_PLANT + f"[quantizer]\nN = {cli.MAX_N_MAX + 1}\n",
        7,
        f"'N' must be at most {cli.MAX_N_MAX}, got {cli.MAX_N_MAX + 1}",
    ),
    "simulate_N": (
        "simulate",
        ZERO_PLANT + f"[simulate]\nhorizon = 1\nN = {cli.MAX_N_MAX + 1}\n",
        8,
        f"'N' must be at most {cli.MAX_N_MAX}, got {cli.MAX_N_MAX + 1}",
    ),
    "size_entry": (
        "simulate",
        ZERO_PLANT + f"[simulate]\nsizes = 4, {cli.MAX_N_MAX + 1}, 2\n",
        7,
        f"'sizes' must be at most {cli.MAX_N_MAX} each, got (4, {cli.MAX_N_MAX + 1}, 2)",
    ),
    "size_count": (
        "simulate",
        ZERO_PLANT + "[simulate]\nsizes = " + ", ".join(["2"] * (cli.MAX_M_MAX + 1)) + "\n",
        7,
        f"'sizes' must be at most {cli.MAX_M_MAX} entries, "
        f"got (2, 2, 2, 2, 2, 2, 2, 2, ... ({cli.MAX_M_MAX + 1} entries))",
    ),
    "steps": (
        "simulate",
        ZERO_PLANT + "[simulate]\nN = 4\nhorizon = 1000\n"
        f"instances = {cli.MAX_STEPS // 1000 + 1}\nfamily = uniform\n",
        9,
        f"'horizon x instances' must be at most {cli.MAX_STEPS}, "
        f"got {1000 * (cli.MAX_STEPS // 1000 + 1)}",
    ),
    "steps_by_order": (
        "simulate",
        _zero_plant(24) + ORDER_24_STEPS.format(11112),
        10,
        f"'horizon x instances x max(n, 4)' must be at most {cli.MAX_ORDER_STEPS}, got {24 * 3 * 11112}",
    ),
    # each instance pays its draws whatever the horizon, so the count has its own cap
    "instances": (
        "simulate",
        ZERO_PLANT + f"[simulate]\nN = 4\nhorizon = 1\ninstances = {cli.MAX_INSTANCES + 1}\n",
        9,
        f"'instances' must be at most {cli.MAX_INSTANCES}, got {cli.MAX_INSTANCES + 1}",
    ),
    "resolution": (
        "verify",
        "[verify]\nseed = 1\nresolution = 0.000199\n",
        3,
        f"'resolution' must be in [{cli.MIN_RESOLUTION}, 0.01], got 0.000199",
    ),
    # a 1e-7 grid would ask numpy for about 182 TiB
    "resolution_tiny": (
        "verify",
        "[verify]\nresolution = 1e-7\n",
        2,
        f"'resolution' must be in [{cli.MIN_RESOLUTION}, 0.01], got 1e-07",
    ),
}


@pytest.mark.parametrize("case", sorted(PAST_LIMIT_CASES))
def test_value_past_its_limit_exits_2_naming_key_and_line(tmp_path, capsys, case):
    command, text, line, message = PAST_LIMIT_CASES[case]
    cfg = write(tmp_path, "limit.cfg", text)
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"config error: config line {line}: {message}\n")
    assert not out.exists()


def test_horizon_past_the_step_budget_alone_exits_2(tmp_path, capsys):
    # instances defaults to 1, so the product is the horizon; no line to name
    text = ZERO_PLANT + f"[simulate]\nN = 4\nhorizon = {cli.MAX_STEPS + 1}\n"
    assert main(["simulate", "--config", write(tmp_path, "h.cfg", text)]) == 2
    message = f"'horizon x instances' must be at most {cli.MAX_STEPS}, got {cli.MAX_STEPS + 1}"
    assert capsys.readouterr() == ("", f"config error: {message}\n")


AT_LIMIT_CASES = {
    "order": ("quantizer", _order_plant(cli.MAX_ORDER) + "[quantizer]\nN = 4\n", ""),
    "quantizer_N": (
        "quantizer",
        ZERO_PLANT + f"[quantizer]\nN = {cli.MAX_N_MAX}\nfamily = uniform\n",
        "",
    ),
    "simulate_N": (
        "simulate",
        ZERO_PLANT + f"[simulate]\nN = {cli.MAX_N_MAX}\nfamily = uniform\nhorizon = 1\n",
        "verdict: stabilized\n",
    ),
    "sizes": (
        "simulate",
        ZERO_PLANT
        + "[simulate]\nfamily = uniform\nsizes = "
        + ", ".join(["2"] * (cli.MAX_M_MAX - 1) + [str(cli.MAX_N_MAX)])
        + "\n",
        "verdict: stabilized\n",
    ),
    "steps": (
        "simulate",
        ZERO_PLANT + "[simulate]\nN = 4\nfamily = uniform\nhorizon = 1000\n"
        f"instances = {cli.MAX_STEPS // 1000}\n",
        f"instances={cli.MAX_STEPS // 1000} stabilized={cli.MAX_STEPS // 1000}\n",
    ),
    "horizon": (
        "simulate",
        ZERO_PLANT + f"[simulate]\nN = 4\nfamily = uniform\nhorizon = {cli.MAX_STEPS}\n",
        "verdict: stabilized\n",
    ),
    # an order-4 batch keeps the whole step budget
    "steps_order_4": (
        "simulate",
        _zero_plant(4) + "[simulate]\nN = 4\nfamily = uniform\nhorizon = 1000\n"
        f"instances = {cli.MAX_STEPS // 1000}\n",
        f"instances={cli.MAX_STEPS // 1000} stabilized={cli.MAX_STEPS // 1000}\n",
    ),
    "steps_by_order": (
        "simulate",
        _zero_plant(24) + ORDER_24_STEPS.format(11111),
        "instances=3 stabilized=3\n",
    ),
    "instances": (
        "simulate",
        ZERO_PLANT + f"[simulate]\nN = 4\nfamily = uniform\nhorizon = 1\ninstances = {cli.MAX_INSTANCES}\n",
        f"instances={cli.MAX_INSTANCES} stabilized={cli.MAX_INSTANCES}\n",
    ),
    "init_bounds": (
        "simulate",
        ZERO_PLANT.replace("\n\n", f"\ninit_bounds = {cli.MAX_INIT_BOUND!r}\n\n")
        + "[simulate]\nN = 4\nfamily = uniform\n",
        "verdict: stabilized\n",
    ),
}


@pytest.mark.parametrize("case", sorted(AT_LIMIT_CASES))
def test_value_at_its_limit_accepted(tmp_path, capsys, case):
    # a = 0 exactly stops every run at step 0, so the accepted runs stay cheap
    command, text, stdout = AT_LIMIT_CASES[case]
    cfg = write(tmp_path, "limit.cfg", text)
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr() == (stdout, "")
    assert out.exists()


INIT_BOUND_PLANTS = {
    1: "[plant]\nn = 1\na_star = 3.0\neps = 0.5\ninit_bounds = {}\n\n",
    2: "[plant]\nn = 2\na_star = 1.0, 3.0\neps = 0.1, 0.35\ninit_bounds = {}\n\n",
}


@pytest.mark.parametrize("init_mode", ["uniform", "endpoints"])
def test_init_bound_whose_double_overflows_exits_2(tmp_path, capsys, init_mode):
    # 2 b = inf: numpy's uniform draw overflows, and endpoints make a nan set
    text = INIT_BOUND_PLANTS[1].format("1e308") + f"[simulate]\nN = 8\ninit_mode = {init_mode}\n"
    assert main(["simulate", "--config", write(tmp_path, "b.cfg", text)]) == 2
    message = "'init_bounds' must be at most 8.988465674311578e+295 each, got (1e+308,)"
    assert capsys.readouterr() == ("", f"config error: config line 5: {message}\n")


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bound", ["1e-320", "2.3e-308", "1e-307", "1e-305"])
def test_init_bound_under_the_floor_exits_2(tmp_path, capsys, n, bound):
    # a run from such a bound stabilizes into subnormal scalings, where the
    # rate-form check of the lower bound fails
    values = ", ".join([bound] * n)
    text = INIT_BOUND_PLANTS[n].format(values) + "[simulate]\nN = 8\n"
    assert main(["simulate", "--config", write(tmp_path, "b.cfg", text)]) == 2
    got = (float(bound),) * n
    message = f"'init_bounds' must be at least {cli.MIN_INIT_BOUND} each, got {got!r}"
    assert capsys.readouterr() == ("", f"config error: config line 5: {message}\n")


@pytest.mark.parametrize("n", [1, 2])
def test_init_bound_at_its_floor_stabilizes(tmp_path, capsys, n):
    values = ", ".join([repr(cli.MIN_INIT_BOUND)] * n)
    text = INIT_BOUND_PLANTS[n].format(values) + "[simulate]\nN = 8\ninstances = 20\n"
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", write(tmp_path, "b.cfg", text), "--out", str(out)]) == 0
    assert capsys.readouterr() == ("instances=20 stabilized=20\n", "")


def test_divergence_threshold_is_finite_at_the_init_bound_ceiling():
    # a run stops as diverged past DIVERGENCE_RATIO * 2 b: finite at the
    # ceiling, and inf one float above it, where no finite scaling passes it
    b = cli.MAX_INIT_BOUND
    assert b == 8.988465674311578e295
    assert math.isfinite(DIVERGENCE_RATIO * (2 * b))
    assert math.isinf(DIVERGENCE_RATIO * (2 * math.nextafter(b, math.inf)))


def test_init_bound_past_the_divergence_ceiling_exits_2(tmp_path, capsys):
    # 2 b is finite, but DIVERGENCE_RATIO * 2 b is not
    text = INIT_BOUND_PLANTS[1].format("1e297") + "[simulate]\nN = 3\n"
    assert main(["simulate", "--config", write(tmp_path, "b.cfg", text)]) == 2
    message = "'init_bounds' must be at most 8.988465674311578e+295 each, got (1e+297,)"
    assert capsys.readouterr() == ("", f"config error: config line 5: {message}\n")


def test_init_bound_at_its_ceiling_fails_runs_without_a_traceback(tmp_path, capsys):
    # the scaling grows at N = 3: a run whose scaling passes DIVERGENCE_RATIO
    # times its first is judged diverged; one whose output overflows first
    # is a failed row with one stderr line: an infinite output is an
    # overflow, not a saturation
    text = INIT_BOUND_PLANTS[1].format(repr(cli.MAX_INIT_BOUND)) + "[simulate]\nN = 3\ninstances = 20\n"
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", write(tmp_path, "b.cfg", text), "--out", str(out)]) == 1
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    bad = [i for i, verdict, *_ in rows if verdict == "failed"]
    got = capsys.readouterr()
    assert got.out == "instances=20 diverged=2 failed=18\n"
    assert rows[0] == ["0", "diverged", "109", "1"]
    err = got.err.splitlines()
    assert [line.split(" ")[1] for line in err] == bad
    assert "instance 1 failed: step 107: the output overflowed to -inf" in err


def test_resolution_at_its_floor_accepted():
    # a verify run at the floor takes about a second, so this reads the value only
    text = f"[verify]\nresolution = {cli.MIN_RESOLUTION!r}\n"
    assert Config(parse_config_text(text)).get_float("verify", "resolution", 1e-3) == 2e-4


def test_usage_lists_the_commands_in_their_order():
    usage = cli.build_parser().format_usage()
    assert "{bounds,simulate,schedule,verify,quantizer}" in usage


HUGE_PLANT = "[plant]\nn = 2\na_star = 1e308, 1e308\neps = 0.0, 0.0\n\n"
HUGE_SWEEP = "[sweep]\nlambda_min = 1e308\nlambda_max = 1e308\nlambda_step = 1e308\n"


@pytest.mark.parametrize("margin", ["0", "0.1"])
def test_plant_at_the_float_range_finds_no_schedule(tmp_path, capsys, margin):
    # rates near 1e308: no single size certifies, so the higher-order search
    # returns None before it computes a radius a float pow could overflow on
    cfg = write(tmp_path, "huge.cfg", HUGE_PLANT + HUGE_SWEEP)
    out = tmp_path / "o.csv"
    argv = ["schedule", "--config", cfg, "--out", str(out), "--m-max", "4", "--n-max", "8"]
    assert main([*argv, "--margin", margin]) == 0
    assert out.read_text().splitlines()[1] == "1e+308,0,1023.15385323,1023.15385323,,,,,,"
    assert capsys.readouterr() == ("lambda=1e+308 schedule=not-found\n", "")


@pytest.mark.parametrize(
    "text,message",
    [
        (
            "[plant]\nn = 1\na_star = 1e308\neps = 1e308\n\n[quantizer]\nN = 3\n",
            "bad [plant] section: coefficient boxes must lie in the float range: "
            "|a_i*| + eps_i overflows",
        ),
        (
            "[plant]\nn = 1\na_star = 3.0\neps = 0.1\n\n[quantizer]\nN = 0\n",
            "a quantizer needs at least 2 levels",
        ),
        (
            "[plant]\nn = 0\na_star = 3.0\neps = 0.1\n\n[quantizer]\nN = 3\n",
            "bad [plant] section: plant order must be at least 1",
        ),
    ],
    ids=["box_overflows", "zero_levels", "zero_order"],
)
def test_quantizer_float_range_and_zero_levels_exit_2(tmp_path, capsys, text, message):
    assert main(["quantizer", "--config", write(tmp_path, "q.cfg", text)]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
