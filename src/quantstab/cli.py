"""Batch command-line front end.

Subcommands:

* bounds     rate bounds and minimal alphabet sizes over a pole-product sweep
* schedule   the same rows with the best periodic schedule filled in
* simulate   closed-loop runs, single trajectory or seeded Monte-Carlo
* quantizer  boundary export for one quantizer
* verify     brute-force oracle checks of the closed forms (needs numpy)

All inputs come from one key-value config file with [section] headers.
Output is CSV with 12 significant digits, so reruns are byte identical.
Exit codes: 0 success, 1 failed verification or failed run, 2 bad config
or an output that cannot be written.

Importing this module loads plant, quantizer, intervals and rates. loop
and oracle are lazy modules whose code runs on the first read of one of
their attributes, which only simulate and verify make. argparse loads
only for help and for the command lines that main's reader hands on.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import math
import os
import sys
import types
from typing import Sequence

from .plant import CONVERGENCE_RATIO, SAMPLING_MODES, Record, UncertainPlant, sample_instance
from .quantizer import (
    FAMILIES,
    SaturationError,
    optimal_boundaries,
    quantizer_for,
    uniform_boundaries,
    v_rate,
)
from .rates import (
    MAX_ORDER,
    Schedule,
    _Table,
    comparison_bounds,
    conservative_known_plant_rate,
    min_sufficient_N,
    necessary_rate,
    search_periodic_schedule,
)


def _deferred(name: str):
    """Module quantstab.<name>, whose code runs on the first read of one of
    its attributes (importlib.util.LazyLoader), so a command that reads none
    neither compiles nor runs it. The module sits in sys.modules from the
    start, where the traced benchmark run (bench/spans.py) looks it up."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


loop = _deferred("loop")  # read by simulate alone
oracle = _deferred("oracle")  # read by verify alone

RATES_CSV_HEADER = (
    "lambda,eps,R_nec,R_known_max,N_suf_opt,N_suf_uni,"
    "R_suf_phat,R_suf_martins,avg_rate_best,m_best"
)
TRAJECTORY_CSV_HEADER = "k,y,s,sigma,Y_lo,Y_hi,u"
# a trajectory row in one format call, which the loop's row kernel makes in
# each step from (k, y, s, sigma, Y_lo, Y_hi, u); "%.12g" is fmt's float format
_TRAJECTORY_ROW = "%d,%.12g,%d,%.12g,%.12g,%.12g,%.12g"
MAX_SWEEP_ROWS = 100_000  # most lambda values one [sweep] may hold
# Caps on the work one request may ask for; the library takes any value.
MAX_N_MAX = 1024  # alphabet size: the rate searches grow faster than linearly
MAX_M_MAX = 256  # schedule period, likewise
# plant order: MAX_ORDER, from rates, the highest order whose verdict code is
# generated; a schedule row at the caps above took up to 0.6 s on six random
# n = 24 plants (2 vCPU), its order's build included
MAX_STEPS = 200_000  # closed-loop steps of one simulate run, horizon x instances
# a step costs more with the plant order: a batch of MAX_STEPS took 0.17 s at
# n = 1, 0.42 s at n = 4 and 1.27-1.99 s at n = 24 (2 vCPU), so past n = 4 the
# steps are weighted by n, and n = 24 runs at most 33 333
MAX_ORDER_STEPS = 4 * MAX_STEPS  # horizon x instances x max(n, 4)
# runs of one simulate batch: each pays two seeded draws and a summary row,
# so a batch at the cap with horizon 1 took 0.24 s at n = 1 and 0.64-0.79 s
# at n = 24 (2 vCPU); 20 000 took 1.3-1.8 s at n = 24
MAX_INSTANCES = 10_000
MIN_RESOLUTION = 2e-4  # verify grid step: time grows as its inverse square, memory stays one tile
# trajectory rows joined and written at a time; the run formats them all
# before the first write, 200 000 rows of about 10 MB of text at MAX_STEPS
CSV_CHUNK_ROWS = 1024
# initial output bound b: the first scaling 2 b must be finite, and a run that
# stabilizes stops under CONVERGENCE_RATIO * 2 b, which must be a normal float
MAX_INIT_BOUND = sys.float_info.max / 2
MIN_INIT_BOUND = sys.float_info.min / CONVERGENCE_RATIO


def _at_least(low):
    """LIMITS rule: v >= low."""
    return (lambda v: v >= low), f"at least {low}"


def _at_most(high):
    """LIMITS rule: v <= high."""
    return (lambda v: v <= high), f"at most {high}"


_FINITE = (math.isfinite, "finite")

LIMITS = {
    "n": (_at_most(MAX_ORDER),),
    "n_max": (_at_least(2), _at_most(MAX_N_MAX)),
    "m_max": (_at_least(1), _at_most(MAX_M_MAX)),
    "margin": ((lambda v: 0.0 <= v < 1.0, "in [0, 1)"),),
    "N": (_at_most(MAX_N_MAX),),
    "sizes": (
        (lambda v: len(v) <= MAX_M_MAX, f"at most {MAX_M_MAX} entries"),
        (lambda v: max(v, default=0) <= MAX_N_MAX, f"at most {MAX_N_MAX} each"),
    ),
    "horizon": (_at_least(1),),
    "instances": (_at_least(1), _at_most(MAX_INSTANCES)),
    "horizon x instances": (_at_most(MAX_STEPS),),
    "horizon x instances x max(n, 4)": (_at_most(MAX_ORDER_STEPS),),
    "resolution": (
        (lambda v: MIN_RESOLUTION <= v <= 0.01, f"in [{MIN_RESOLUTION}, 0.01]"),
    ),
    "seed": (_at_least(0),),
    # non-finite and nonpositive entries are left to UncertainPlant's checks
    "init_bounds": (
        (lambda v: not any(MAX_INIT_BOUND < b < math.inf for b in v), f"at most {MAX_INIT_BOUND} each"),
        (lambda v: not any(0.0 < b < MIN_INIT_BOUND for b in v), f"at least {MIN_INIT_BOUND} each"),
    ),
    "lambda_min": (_FINITE,),
    "lambda_max": (_FINITE,),
    "lambda_step": (_FINITE,),
}
"""Every range a config value must lie in, keyed by key name in any section:
(test, requirement) rules, checked in order on the converted value."""


class ConfigError(Exception):
    """Malformed or inconsistent configuration, or an unwritable output; exits with code 2."""


def _config_error(line: int | None, message: str) -> ConfigError:
    """ConfigError with message, after 'config line N: ' for a value read from line N."""
    return ConfigError(message if line is None else f"config line {line}: {message}")


def fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


# ---------------------------------------------------------------------------
# config parsing


def parse_config_text(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """[section] / key = value lines; '#' or ';' comments. Tracks line numbers."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"config line {lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"config line {lineno}: key outside any [section]")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        sections[current][key] = (val, lineno)
    return sections


_REQUIRED = object()
"""Default that makes a config key mandatory."""


SHOWN = 8  # entries an error message prints of a longer list


def _listed(items: Sequence) -> str:
    """'a, b, ...' of items; past SHOWN entries, the first SHOWN, '...' and the count."""
    text = ", ".join(map(repr, items[:SHOWN]))
    return text if len(items) <= SHOWN else f"{text}, ... ({len(items)} entries)"


def _check(name: str, value, line: int | None) -> None:
    """A config error naming name, and line if given, at value's first failed LIMITS rule."""
    for test, requirement in LIMITS.get(name, ()):
        if not test(value):
            got = repr(value)
            if isinstance(value, tuple) and len(value) > SHOWN:
                got = f"({_listed(value)})"
            raise _config_error(line, f"'{name}' must be {requirement}, got {got}")


class Config(Record):
    """The parsed config, [section] -> key -> (value text, line); a record
    whose field may be assigned, unhashable like Trajectory."""

    __slots__ = __match_args__ = ("sections",)
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
    sections: dict[str, dict[str, tuple[str, int]]]

    def __init__(self, sections: dict[str, dict[str, tuple[str, int]]]) -> None:
        self.sections = sections

    def _parse(self, section, key, default, convert, expected, flag=None, times=()):
        """The checked value of [section] key: flag when given, else convert(value)
        of the key, else default; None when that default is None.

        A missing key with default _REQUIRED, a value that convert rejects with
        ValueError or one that fails a LIMITS rule of key is a ConfigError naming
        the key and, for a value from the file, its line. Each (rule, factor) of
        times also checks factor * value against the LIMITS rules of rule.
        """
        value, line = flag, None
        if flag is None:
            entry = self.sections.get(section, {}).get(key)
            if entry is None:
                if default is _REQUIRED:
                    raise ConfigError(f"missing required key '{key}' in section [{section}]")
                if default is None:
                    return None
                value = default
            else:
                text, line = entry
                try:
                    value = convert(text)
                except ValueError:
                    raise _config_error(line, f"'{key}' must be {expected}, got {text!r}") from None
        _check(key, value, line)
        for rule, factor in times:
            _check(rule, factor * value, line)
        return value

    def get_int(self, section: str, key: str, default=None, flag=None, times=()):
        return self._parse(section, key, default, int, "an integer", flag, times)

    def get_float(self, section: str, key: str, default=None, flag=None) -> float | None:
        return self._parse(section, key, default, float, "a number", flag)

    def get_choice(self, section: str, key: str, choices: Sequence[str], default: str) -> str:
        def pick(val: str) -> str:
            if val not in choices:
                raise ValueError(val)
            return val

        return self._parse(section, key, default, pick, f"one of {', '.join(choices)}")

    def get_floats(self, section: str, key: str, default=None) -> tuple[float, ...] | None:
        return self._parse(section, key, default, _comma_list(float), "comma-separated numbers")

    def get_ints(self, section: str, key: str, default=None) -> tuple[int, ...] | None:
        return self._parse(section, key, default, _comma_list(int), "comma-separated integers")


def _comma_list(convert):
    """Parser of 'a, b, ...' into a tuple of convert(item), empty items dropped."""
    return lambda val: tuple(convert(v.strip()) for v in val.split(",") if v.strip())


KNOWN_KEYS = {
    "plant": {"n", "a_star", "eps", "init_bounds"},
    "sweep": {"lambda_min", "lambda_max", "lambda_step"},
    "rates": {"n_max", "margin"},
    "schedule": {"n_max", "m_max"},
    "simulate": {"sizes", "N", "family", "horizon", "instances", "instance_mode", "init_mode", "seed"},
    "quantizer": {"N", "family"},
    "verify": {"resolution", "seed"},
}
"""[section] -> the keys some command reads in it: a key or section outside
it would be ignored, so load_config refuses it."""


def load_config(path: str) -> Config:
    """The config at path; a section or key that no command reads is a
    ConfigError naming its line."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    sections = parse_config_text(text)
    if not sections.keys() <= KNOWN_KEYS.keys():
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()  # a header as parse_config_text reads it
            if line.startswith("[") and line.endswith("]") and line[1:-1].strip() not in KNOWN_KEYS:
                raise _config_error(lineno, f"unknown section [{line[1:-1].strip()}]")
    for name, entries in sections.items():
        for key, (_, line) in entries.items():
            if key not in KNOWN_KEYS[name]:
                raise _config_error(line, f"unknown key '{key}' in [{name}]")
    return Config(sections)


def plant_from_config(cfg: Config) -> UncertainPlant:
    n = cfg.get_int("plant", "n", _REQUIRED)
    a_star = cfg.get_floats("plant", "a_star", _REQUIRED)
    eps = cfg.get_floats("plant", "eps", _REQUIRED)
    init_bounds = cfg.get_floats("plant", "init_bounds", None)
    if init_bounds is None:
        init_bounds = (1.0,) * n
    try:
        return UncertainPlant(n=n, a_star=a_star, eps=eps, init_bounds=init_bounds)
    except ValueError as exc:
        raise ConfigError(f"bad [plant] section: {exc}") from None


def sweep_from_config(cfg: Config) -> list[float]:
    lo = cfg.get_float("sweep", "lambda_min", _REQUIRED)
    hi = cfg.get_float("sweep", "lambda_max", _REQUIRED)
    step = cfg.get_float("sweep", "lambda_step", _REQUIRED)
    if step <= 0 or hi < lo:
        raise ConfigError("[sweep] needs lambda_step > 0 and lambda_max >= lambda_min")
    span = (hi - lo) / step  # inf when hi - lo overflows
    if not span < MAX_SWEEP_ROWS - 0.5:  # the sweep has round(span) + 1 points
        raise ConfigError(f"'lambda_step' = {step!r} gives more than {MAX_SWEEP_ROWS} sweep points")
    count = int(round(span)) + 1
    vals = [lo + j * step for j in range(count)]
    # the float lo + j * step of the grid point hi may land a few ulp past it
    return [v for v in vals if v <= hi + max(1e-12, 4 * math.ulp(hi))]


def _with_pole_product(p: UncertainPlant, lam: float) -> UncertainPlant:
    sign = -1.0 if p.a_star[-1] < 0 else 1.0
    a = p.a_star[:-1] + (sign * lam,)
    return UncertainPlant(n=p.n, a_star=a, eps=p.eps, init_bounds=p.init_bounds)


# ---------------------------------------------------------------------------
# bounds / schedule rows


def _bounds_row(args) -> list[str]:
    """CSV row and schedule note at one pole product; m_max None skips the search."""
    (p, lam, n_max, margin, m_max) = args
    p = _with_pole_product(p, lam)
    eps_n = p.eps[-1]
    r_nec = necessary_rate(lam, eps_n)
    r_known = conservative_known_plant_rate(lam, eps_n)
    table = _Table(p, "optimal", n_max, margin)  # one read for N_suf_opt and the search
    n_opt = min_sufficient_N(p, "optimal", n_max, margin, table=table)
    n_uni = min_sufficient_N(p, "uniform", n_max, margin)
    r_suf = r_suf_prime = None
    if p.n == 1 and eps_n < 1.0:
        cb = comparison_bounds(lam, eps_n)
        r_suf = cb.r_suf
        r_suf_prime = cb.r_suf_prime
    avg_best = m_best = None
    note = ""
    if m_max is not None:
        res = search_periodic_schedule(p, m_max, n_max, "optimal", margin, table=table)
        if res is None:
            note = f"lambda={fmt(lam)} schedule=not-found"
        else:
            avg_best = res.avg_rate
            m_best = res.schedule.m
            kind = "exact" if res.exact else "heuristic"
            note = f"lambda={fmt(lam)} schedule={list(res.schedule.sizes)} ({kind})"
    row = [
        fmt(lam),
        fmt(eps_n),
        fmt(r_nec),
        fmt(r_known),
        fmt(n_opt),
        fmt(n_uni),
        fmt(r_suf),
        fmt(r_suf_prime),
        fmt(avg_best),
        fmt(m_best),
    ]
    return [",".join(row), note]


def _emit(chunks, out: str | None) -> None:
    """Write each chunk, a nonempty list of lines, in one call, to out or to
    stdout, flushed; an OSError opening, writing, flushing or closing either
    is a ConfigError, so the interpreter's exit flush finds nothing left."""
    sink = contextlib.nullcontext(sys.stdout)
    try:
        with sink if out is None else open(out, "w", encoding="utf-8", newline="") as fh:
            for lines in chunks:
                fh.write("\n".join(lines) + "\n")
            fh.flush()
    except OSError as exc:
        raise ConfigError(f"cannot write output {out or '<stdout>'}: {exc}") from None


def worker_count(jobs: int) -> int:
    """--jobs clamped to [1, number of CPUs]."""
    return max(1, min(jobs, os.cpu_count() or 1))


def _run_rows(worker, jobs: int, arglist):
    jobs = worker_count(jobs)
    if jobs == 1:
        return [worker(a) for a in arglist]
    # imported only here: multiprocessing would add to every `import quantstab.cli`
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(worker, arglist))


def cmd_sweep(cfg: Config, opts) -> int:
    """One CSV row per swept pole product; `schedule` adds the schedule search."""
    with_schedule = opts.command == "schedule"
    p = plant_from_config(cfg)
    lams = sweep_from_config(cfg)
    n_max = cfg.get_int("schedule" if with_schedule else "rates", "n_max", 64, opts.n_max)
    margin = cfg.get_float("rates", "margin", 0.0, opts.margin)
    m_max = cfg.get_int("schedule", "m_max", 32, opts.m_max) if with_schedule else None
    args = [(p, lam, n_max, margin, m_max) for lam in lams]
    try:
        rows = _run_rows(_bounds_row, opts.jobs, args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _emit([[RATES_CSV_HEADER] + [r[0] for r in rows]], opts.out)
    notes = [note for _, note in rows if note]
    if notes:
        _emit([notes], None)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _sim_one(setup, horizon, mode, seed, i, init_mode, record):
    """(verdict, diagnostic, trajectory) of instance i of the setup's plant,
    schedule and family, recorded as run_closed_loop's record says: False
    keeps no samples, _TRAJECTORY_ROW keeps the CSV row of each time index.

    A run that raises has no trajectory: its verdict is "saturated" for a
    SaturationError and "failed" for a malformed set or a broken invariant.
    """
    p = setup.p
    a = sample_instance(
        p,
        mode,
        index=i % (2**p.n) if mode == "vertex" else None,
        seed=[seed, i, 0] if mode == "uniform" else None,
    )
    try:
        traj = loop.run_closed_loop(
            p, a, setup.sched, setup.family, horizon, init_mode, init_seed=[seed, i, 1],
            record=record, setup=setup,
        )
    except SaturationError as exc:
        return "saturated", str(exc), None
    except (ValueError, loop.InvariantViolation) as exc:
        return "failed", str(exc), None
    return traj.verdict, "", traj


def _trajectory_chunks(rows, verdict: str):
    """The single-run CSV as line lists of at most CSV_CHUNK_ROWS of the run's
    formatted rows, the header on the first list and the verdict on the last."""
    lines = [TRAJECTORY_CSV_HEADER]
    for i in range(0, len(rows), CSV_CHUNK_ROWS):
        if i:
            yield lines
            lines = []
        lines += rows[i : i + CSV_CHUNK_ROWS]
    lines.append(f"# verdict={verdict}")
    yield lines


def cmd_simulate(cfg: Config, opts) -> int:
    p = plant_from_config(cfg)
    sizes = cfg.get_ints("simulate", "sizes", None)
    if sizes is None:
        n_level = cfg.get_int("simulate", "N", _REQUIRED)
        sizes = (n_level,)
    try:
        sched = Schedule(sizes)
    except ValueError as exc:
        raise ConfigError(f"bad schedule sizes: {exc}") from None
    family = cfg.get_choice("simulate", "family", FAMILIES, "optimal")
    horizon = cfg.get_int("simulate", "horizon", 500)
    steps = ("horizon x instances", horizon), ("horizon x instances x max(n, 4)", horizon * max(p.n, 4))
    instances = cfg.get_int("simulate", "instances", 1, times=steps)
    mode = cfg.get_choice("simulate", "instance_mode", SAMPLING_MODES, "uniform")
    init_mode = cfg.get_choice("simulate", "init_mode", loop.INIT_MODES, "uniform")
    seed = cfg.get_int("simulate", "seed", 0, opts.seed)
    try:
        setup = loop._Setup(p, sched, family)  # one set-up that every instance shares
    except ValueError as exc:
        sizes_text = _listed(sched.sizes)
        raise ConfigError(f"no {family} quantizer layout for sizes {sizes_text}: {exc}") from None
    if mode == "uniform":
        # a uniform draw scales by hi - lo, which must not overflow
        for i, (lo, hi) in enumerate(p.parameter_intervals(), 1):
            if not math.isfinite(hi - lo):
                raise ConfigError(
                    f"instance_mode = uniform needs each coefficient box narrower than "
                    f"the float range; the box of a_{i} is [{fmt(lo)}, {fmt(hi)}]"
                )

    if instances == 1:
        verdict, diag, traj = _sim_one(setup, horizon, mode, seed, 0, init_mode, _TRAJECTORY_ROW)
        if traj is None:
            print(f"run failed: {diag}", file=sys.stderr)
            return 1
        _emit(_trajectory_chunks(traj.samples, verdict), opts.out)
        _emit([[f"verdict: {verdict}"]], None)
        return 0

    # one summary row per instance; each trajectory is dropped once summarized
    lines = ["instance,verdict,steps,min_sigma_ratio"]
    counts: dict[str, int] = {}
    failed = 0
    for i in range(instances):
        verdict, diag, traj = _sim_one(setup, horizon, mode, seed, i, init_mode, False)
        counts[verdict] = counts.get(verdict, 0) + 1
        if traj is None:
            failed += 1
            lines.append(f"{i},{verdict},,")
            print(f"instance {i} failed: {diag}", file=sys.stderr)
        else:
            lines.append(f"{i},{verdict},{traj.steps},{fmt(traj.min_sigma_ratio())}")
    _emit([lines], opts.out)
    summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    _emit([[f"instances={instances} {summary}"]], None)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# quantizer export


def cmd_quantizer(cfg: Config, opts) -> int:
    p = plant_from_config(cfg)
    n_level = cfg.get_int("quantizer", "N", _REQUIRED)
    family = cfg.get_choice("quantizer", "family", FAMILIES, "optimal")
    try:
        q = quantizer_for(family, p, n_level)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    lines = ["l,h_l"] + [f"{l},{fmt(hv)}" for l, hv in enumerate(q.h)]
    _emit([lines], opts.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _yes_no(name: str, want: bool, got: bool) -> tuple:
    """Verify row (name, want, got, |got - want|, got == want) of a yes/no check."""
    return (name, float(want), float(got), abs(float(got) - want), got == want)


def run_verification(resolution: float = 1e-3, seed: int = 0):
    """Rows (case, closed_form, oracle, abs_diff, pass) of the fixed oracle check grid."""
    rows = []
    for lam in (2.0, 2.5, 3.0):
        for eps in (0.2, 0.35, 0.5):
            for n_level in (2, 3, 4, 5):
                closed = v_rate(lam, eps, n_level)
                res = oracle.grid_optimal_boundaries(lam, eps, n_level, resolution)
                ref = optimal_boundaries(lam, eps, n_level)
                sup = max(abs(a - b) for a, b in zip(res.h, ref.h))
                diff = abs(res.value - closed)
                name = f"boundary_synthesis lam={lam} eps={eps} N={n_level}"
                rows.append((name, closed, res.value, diff, diff <= 1e-4 and sup <= 2e-3))
            plant = UncertainPlant(1, (lam,), (eps,), (1.0,))
            got = oracle.verify_equalization(optimal_boundaries(lam, eps, 8), plant)
            rows.append(_yes_no(f"equalization_optimal lam={lam} eps={eps}", True, got))
            got = oracle.verify_equalization(uniform_boundaries(8), plant)
            rows.append(_yes_no(f"equalization_uniform lam={lam} eps={eps}", False, got))
    for m in (2, 3, 5):
        ok = oracle.verify_relaxation_kkt(3.0, 0.35, m, trials=10_000, seed=seed)
        rows.append(_yes_no(f"relaxation_kkt lam=3.0 eps=0.35 m={m}", True, ok))
    for n_level, eps in ((8, 0.5), (7, 0.0)):
        q = optimal_boundaries(3.0, eps, n_level)  # uniform at eps = 0
        ok = oracle.exhaustive_encode_decode(q, max(1000, 10 * n_level))
        rows.append(_yes_no(f"encode_decode N={n_level} eps={eps}", True, ok))
    return rows


def cmd_verify(cfg: Config, opts) -> int:
    resolution = cfg.get_float("verify", "resolution", 1e-3)
    seed = cfg.get_int("verify", "seed", 0, opts.seed)
    if importlib.util.find_spec("numpy") is None:  # the oracles' array programs need it
        print("verify needs numpy: install quantstab[oracle]", file=sys.stderr)
        return 1
    rows = run_verification(resolution, seed)
    lines = ["case,closed_form,oracle,abs_diff,pass"]
    lines += [f"{name},{fmt(c)},{fmt(g)},{fmt(d)},{int(ok)}" for name, c, g, d, ok in rows]
    passed = sum(ok for *_, ok in rows)
    _emit([lines], opts.out)
    _emit([[f"verify: {passed}/{len(rows)} checks passed"]], None)
    return 0 if passed == len(rows) else 1


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {
    "bounds": cmd_sweep,
    "simulate": cmd_simulate,
    "schedule": cmd_sweep,
    "verify": cmd_verify,
    "quantizer": cmd_quantizer,
}
"""Subcommand name to handler, in the order of the usage text."""


OPTIONS = {
    "--config": ("config", str, None, "key-value config file"),
    "--out": ("out", str, None, "output CSV path (default stdout)"),
    "--seed": ("seed", int, None, "master seed override"),
    "--jobs": ("jobs", int, 1, "parallel workers for sweeps"),
    "--m-max": ("m_max", int, None, "max schedule period"),
    "--n-max": ("n_max", int, None, "max alphabet size"),
    "--margin": ("margin", float, None, "stability margin"),
}
"""Flag -> (dest, type, default, help), read by _read_argv and build_parser."""


@functools.cache
def build_parser():
    """The argparse parser of OPTIONS, built on the first call and shared after it.

    main builds it only for a command line that _read_argv does not take,
    so it is the one source of help, usage and error text. parse_args leaves
    a parser as it found it, so every such request in one process reuses it.
    """
    import argparse  # and with it gettext, which a well-formed request never loads

    ap = argparse.ArgumentParser(
        prog="quantstab",
        description="Rate-limited stabilization toolkit: bounds, schedules, simulation",
    )
    ap.add_argument("command", choices=list(COMMANDS))
    for flag, (dest, convert, default, text) in OPTIONS.items():
        ap.add_argument(flag, dest=dest, type=convert, default=default, help=text,
                        required=flag == "--config")
    return ap


def _read_argv(argv: Sequence[str]) -> types.SimpleNamespace | None:
    """The options build_parser().parse_args(argv) gives when argv is a command,
    then `--flag value` pairs of OPTIONS with --config among them; None for any
    other form, for a value starting with '-' and for one its type rejects."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    opts = {"command": argv[0]}
    opts.update((dest, default) for dest, _, default, _ in OPTIONS.values())
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in OPTIONS or value.startswith("-"):
            return None
        dest, convert = OPTIONS[flag][:2]
        try:
            opts[dest] = convert(value)  # a repeated flag keeps its last value
        except ValueError:
            return None
    return types.SimpleNamespace(**opts) if opts["config"] is not None else None


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    opts = _read_argv(argv) or build_parser().parse_args(argv)
    try:
        return COMMANDS[opts.command](load_config(opts.config), opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
