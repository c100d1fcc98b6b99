"""The command line's exit-code contract under generated configs.

Config text is built from the key grammar of every section. Values are
valid, at a limit or past it; one request in three also draws wild values:
non-finite, signed zero, huge (1e308, 10**30), empty, mismatched lists or
not numbers at all, and malformed lines. Unknown keys and sections ride
along. Each of the five subcommands runs through cli.main in process and
must exit 0, 1 or 2 without raising.

A plant at the edge of the float range fails only deep in a run, so a
second test draws those plants together with what reaches their failure:
a simulate request with a stabilizing size, a long horizon and every
family and init mode.

A third test draws command lines from the option table's grammar and
checks that main's one-pass reader, wherever it takes one, gives the
options argparse gives.

Accepted runs are kept short: horizon x instances stays small, and a
schedule request always sets m_max <= 4 and n_max <= 32, by flag or by key.
The runtime ceiling of a schedule row at larger caps is ROADMAP item 5's
open gate: eps = 0 rows at integer lambda take 5-24 s at m_max 8, and over
a minute at the default 32 x 64. This test does not check that ceiling.
A verify run at the resolution floor takes about a second, so the floor
itself is read in test_cli.py and only values past it are drawn here.
"""

import contextlib
import io
import os
import tempfile

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quantstab import cli

WILD = [
    "nan", "inf", "-inf", "-0", "-0.0", "-1", "1e308", "-1e308", str(10**30),
    "", "garbage", "1, 2", "0x10", "1_0",
]
# initial output bounds under the floor, where a stabilizing run's scaling
# turns subnormal
TINY_BOUNDS = ("1e-320", "2.3e-308", "1e-307", "1e-305")
MALFORMED = ["no equals\n", "[]\n", "= 5\n", "[plant\n", "[extra]\nkey = x\n"]

# the values each key draws besides WILD, including ones at and past its limit
SECTIONS = {
    "sweep": {
        "lambda_min": ("1.5", "2.0", "3.0", "0"),
        "lambda_max": ("1.5", "2.5", "3.0", "4.0"),
        "lambda_step": ("0.5", "1", "0.25", "1e-9", "0"),
    },
    "rates": {
        "n_max": ("2", "8", "32", "1", "1025"),
        "margin": ("0", "0.02", "0.5", "0.9999999999999999", "1", "-0.5"),
    },
    "schedule": {"n_max": ("2", "8", "32", "1", "1025"), "m_max": ("1", "2", "4", "0", "257")},
    "simulate": {
        "sizes": None,  # drawn by sizes()
        "N": ("2", "3", "4", "8", "1024", "1", "1025"),
        "family": ("optimal", "uniform", "fancy"),
        "horizon": ("1", "5", "20", "0", "200001"),
        "instances": ("1", "2", "3", "0", "200001"),
        "instance_mode": ("nominal", "vertex", "uniform", "corner"),
        "init_mode": ("endpoints", "zero", "uniform", "random"),
        "seed": ("0", "7", "-1", str(10**30)),
    },
    "quantizer": {
        "N": ("2", "3", "4", "8", "64", "1024", "1025", "1", "0"),
        "family": ("optimal", "uniform", "fancy"),
    },
    "verify": {
        "resolution": ("0.001", "0.01", "0.005", "0.000199", "1e-7", "0", "0.5"),
        "seed": ("0", "3", "-1"),
    },
}
REQUIRED = {"lambda_min", "lambda_max", "lambda_step", "N"}

COMMAND_SECTIONS = {
    "bounds": ("plant", "sweep", "rates"),
    "schedule": ("plant", "sweep", "rates", "schedule"),
    "simulate": ("plant", "simulate"),
    "quantizer": ("plant", "quantizer"),
    "verify": ("verify",),
}

FLAGS = {
    "--seed": ("0", "5", "-1", str(10**30)),
    "--margin": ("0", "0.1", "-0.0", "1.0", "nan", "inf", "-0.5"),
    "--n-max": ("2", "8", "32", "1", "1025"),
    "--m-max": ("1", "4", "0", "257"),
}


@st.composite
def requests(draw) -> tuple[list[str], str]:
    """(argv without --config, --out and --jobs, config text) of one request."""
    wild = draw(st.sampled_from([False, False, True]))

    def value(choices) -> str:
        if wild and draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from(WILD))
        return draw(st.sampled_from(choices))

    def plant() -> list[str]:
        n = draw(st.sampled_from([1, 2, 3]))
        order = value(("0", "24", "25", "10000000000000")) if wild and draw(st.booleans()) else n
        lines = [f"n = {order}"]
        for key, inner, lead in (
            ("a_star", ("-0.3", "0.0", "0.2"), ("1.5", "2.0", "3.0", "-2.5", "4.0", "1e300")),
            ("eps", ("0.0", "0.05", "0.1"), ("0.0", "0.1", "0.35", "0.6")),
            ("init_bounds", ("1.0", "0.5", *TINY_BOUNDS), ("1.0", "2.0", "1e10", "1e308", *TINY_BOUNDS)),
        ):
            size = draw(st.integers(0, 4)) if wild and draw(st.booleans()) else n
            entries = [value(inner) for _ in range(size - 1)] + [value(lead)] * (size > 0)
            if key != "init_bounds" or draw(st.booleans()):
                lines.append(f"{key} = " + ", ".join(entries))
        return lines

    def sizes() -> str:
        entries = ("2", "3", "4", "8") + (("1", "0", "1025", "x", "") if wild else ())
        if wild and draw(st.integers(0, 7)) == 0:
            return ", ".join(["2"] * 257)
        return ", ".join(draw(st.lists(st.sampled_from(entries), min_size=1, max_size=4)))

    command = draw(st.sampled_from(sorted(COMMAND_SECTIONS)))
    blocks = []
    for section in COMMAND_SECTIONS[command]:
        if section == "plant":
            lines = plant()
        else:
            lines = []
            for key, choices in SECTIONS[section].items():
                # a required key is left out only in a wild request, any other half the
                # time; [schedule] keys always stand, so that the caps stay small
                keep = draw(st.booleans()) or (key in REQUIRED and not wild) or section == "schedule"
                if keep:
                    lines.append(f"{key} = {sizes() if choices is None else value(choices)}")
        if draw(st.integers(0, 7)) == 0:
            lines.append(f"bogus = {draw(st.sampled_from(WILD))}")
        blocks.append(f"[{section}]\n" + "".join(f"{line}\n" for line in lines))
    if wild and draw(st.booleans()):
        blocks.append(draw(st.sampled_from(MALFORMED)))
    argv = [command]
    for flag, choices in FLAGS.items():
        if (flag != "--m-max" or command == "schedule") and draw(st.integers(0, 3)) == 0:
            argv += [flag, draw(st.sampled_from(choices))]
    return argv, "\n".join(blocks)


@st.composite
def edge_runs(draw) -> tuple[list[str], str]:
    """(argv, config text) of a simulate run on a plant at the float range's edge.

    The plant has an init bound at or past either limit, or a lead
    coefficient of 1e300 over a bound of 1e10. A huge bound or coefficient
    overflows within a few steps. A tiny one fails only once a stabilizing
    run's scaling turns subnormal: N = 8 stabilizes both plants, and the
    scaling gets there after step 40 for n = 1 and after step 80 for n = 2.
    """
    n = draw(st.sampled_from([1, 2]))
    inner_a, inner_eps = ("1.0, ", "0.1, ") if n == 2 else ("", "")
    if draw(st.integers(0, 3)) == 0:
        lead, lead_eps, bound = "1e300", "0.0", "1e10"
    else:
        lead, lead_eps = "3.0", ("0.5" if n == 1 else "0.35")
        bound = draw(st.sampled_from(
            ("1e308", repr(cli.MAX_INIT_BOUND), repr(cli.MIN_INIT_BOUND), *TINY_BOUNDS)
        ))
    lines = [
        "[plant]", f"n = {n}", f"a_star = {inner_a}{lead}", f"eps = {inner_eps}{lead_eps}",
        "init_bounds = " + ", ".join([bound] * n), "",
        "[simulate]", "N = 8", f"horizon = {draw(st.sampled_from(('200', '1000')))}",
        f"instances = {draw(st.integers(1, 4))}",
        f"family = {draw(st.sampled_from(('optimal', 'uniform')))}",
        f"instance_mode = {draw(st.sampled_from(('nominal', 'vertex', 'uniform')))}",
        f"init_mode = {draw(st.sampled_from(('endpoints', 'zero', 'uniform')))}",
    ]
    return ["simulate"], "".join(f"{line}\n" for line in lines)


def exit_code(argv: list[str], text: str) -> int:
    """cli.main's exit code for the request, its output discarded."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "fuzz.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        args = [*argv, "--config", cfg, "--out", os.path.join(tmp, "o.csv"), "--jobs", "1"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(args)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(requests())
def test_every_generated_config_exits_0_1_or_2(request):
    argv, text = request
    assert exit_code(argv, text) in (0, 1, 2), (argv, text)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edge_runs())
def test_every_run_at_the_float_range_edge_exits_0_1_or_2(request):
    argv, text = request
    assert exit_code(argv, text) in (0, 1, 2), (argv, text)


# option values: valid, at an edge of what int and float read, or refused
# by them; the reader hands on a value starting with "-", such as "-1e5",
# which argparse takes for a flag
OPTION_VALUES = (
    "0", "5", "0.25", "run.cfg",
    "1_0", " 7", "", "nan", "inf", "+4", "\u0663",
    "x", "0x10", "-3", "-1e5",
)


@st.composite
def command_lines(draw) -> list[str]:
    """A command, then --config and any of the other flags in any order,
    some repeated, each followed by a value."""
    flags = draw(st.lists(st.sampled_from([f for f in cli.OPTIONS if f != "--config"]), max_size=8))
    flags.insert(draw(st.integers(0, len(flags))), "--config")
    argv = [draw(st.sampled_from(list(cli.COMMANDS)))]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(OPTION_VALUES))]
    return argv


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_the_option_reader_agrees_with_argparse(argv):
    opts = cli._read_argv(argv)
    if opts is not None:  # repr, since nan != nan
        assert repr(vars(opts)) == repr(vars(cli.build_parser().parse_args(argv))), argv
    elif not any(value.startswith("-") for value in argv[2::2]):
        # handed on for a value its type refuses, which argparse refuses too
        with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2, argv
