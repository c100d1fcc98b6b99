"""Batch command-line front end.

Subcommands:

* bounds     rate bounds and minimal alphabet sizes over a pole-product sweep
* schedule   the same rows with the best periodic schedule filled in
* simulate   closed-loop runs, single trajectory or seeded Monte-Carlo
* quantizer  boundary export for one quantizer
* verify     brute-force oracle checks of the closed forms

All inputs come from one key-value config file with [section] headers.
Output is CSV with 12 significant digits, so reruns are byte identical.
Exit codes: 0 success, 1 failed verification or failed run, 2 bad config.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from .loop import INIT_MODES, run_closed_loop
from .oracle import (
    exhaustive_encode_decode,
    grid_optimal_boundaries,
    verify_equalization,
    verify_relaxation_kkt,
)
from .plant import SAMPLING_MODES, UncertainPlant, sample_instance
from .quantizer import (
    FAMILIES,
    SaturationError,
    optimal_boundaries,
    quantizer_for,
    uniform_boundaries,
    v_rate,
)
from .rates import (
    CertificateError,
    Schedule,
    comparison_bounds,
    conservative_known_plant_rate,
    min_sufficient_N,
    necessary_rate,
    schedule_quantizers,
    search_periodic_schedule,
)

RATES_CSV_HEADER = (
    "lambda,eps,R_nec,R_known_max,N_suf_opt,N_suf_uni,"
    "R_suf_phat,R_suf_martins,avg_rate_best,m_best"
)
TRAJECTORY_CSV_HEADER = "k,y,s,sigma,Y_lo,Y_hi,u"


class ConfigError(Exception):
    """Malformed or inconsistent configuration; exits with code 2."""


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


@dataclass
class Config:
    sections: dict[str, dict[str, tuple[str, int]]]

    def _parse(self, section: str, key: str, default, convert, expected: str):
        """convert(value) of [section] key, or default when the key is absent.

        A missing key with default _REQUIRED, or a value that convert rejects
        with ValueError, is a ConfigError naming the key and its config line.
        """
        sec = self.sections.get(section, {})
        if key not in sec:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key '{key}' in section [{section}]")
            return default
        val, lineno = sec[key]
        try:
            return convert(val)
        except ValueError:
            raise ConfigError(
                f"config line {lineno}: '{key}' must be {expected}, got {val!r}"
            ) from None

    def get_str(self, section: str, key: str, default=None) -> str | None:
        return self._parse(section, key, default, str, "text")

    def get_int(self, section: str, key: str, default=None) -> int | None:
        return self._parse(section, key, default, int, "an integer")

    def get_float(self, section: str, key: str, default=None) -> float | None:
        return self._parse(section, key, default, float, "a number")

    def get_choice(self, section: str, key: str, choices: Sequence[str], default: str) -> str:
        def pick(val: str) -> str:
            if val not in choices:
                raise ValueError(val)
            return val

        return self._parse(section, key, default, pick, f"one of {', '.join(choices)}")

    def get_floats(self, section: str, key: str, default=None) -> tuple[float, ...] | None:
        return self._parse(
            section, key, default, _comma_list(float), "comma-separated numbers"
        )

    def get_ints(self, section: str, key: str, default=None) -> tuple[int, ...] | None:
        return self._parse(
            section, key, default, _comma_list(int), "comma-separated integers"
        )


def _comma_list(convert):
    """Parser of 'a, b, ...' into a tuple of convert(item), empty items dropped."""
    return lambda val: tuple(convert(v.strip()) for v in val.split(",") if v.strip())


def load_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return Config(parse_config_text(text))


def _at_least(key: str, value: int, low: int) -> int:
    """value, or a config error naming key when it is below low."""
    if value < low:
        raise ConfigError(f"'{key}' must be at least {low}, got {value}")
    return value


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
    count = int(round((hi - lo) / step)) + 1
    vals = [lo + j * step for j in range(count)]
    return [v for v in vals if v <= hi + 1e-12]


def _with_pole_product(p: UncertainPlant, lam: float) -> UncertainPlant:
    sign = -1.0 if p.a_star[-1] < 0 else 1.0
    a = p.a_star[:-1] + (sign * lam,)
    return UncertainPlant(n=p.n, a_star=a, eps=p.eps, init_bounds=p.init_bounds)


# ---------------------------------------------------------------------------
# bounds / schedule rows


def _bounds_row(args) -> list[str]:
    """CSV row and schedule note at one pole product; m_max None skips the search."""
    (p_fields, lam, n_max, margin, m_max) = args
    p = _with_pole_product(UncertainPlant(*p_fields), lam)
    eps_n = p.eps[-1]
    r_nec = necessary_rate(lam, eps_n)
    r_known = conservative_known_plant_rate(lam, eps_n)
    n_opt = min_sufficient_N(p, "optimal", n_max)
    n_uni = min_sufficient_N(p, "uniform", n_max)
    r_suf = r_suf_prime = None
    if p.n == 1 and eps_n < 1.0:
        cb = comparison_bounds(lam, eps_n)
        r_suf = cb.r_suf
        r_suf_prime = cb.r_suf_prime
    avg_best = m_best = None
    note = ""
    if m_max is not None:
        res = search_periodic_schedule(p, m_max, n_max, "optimal", margin)
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


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def worker_count(jobs: int) -> int:
    """--jobs clamped to [1, number of CPUs]."""
    return max(1, min(jobs, os.cpu_count() or 1))


def _run_rows(worker, jobs: int, arglist):
    jobs = worker_count(jobs)
    if jobs == 1:
        return [worker(a) for a in arglist]
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(worker, arglist))


def cmd_sweep(cfg: Config, opts) -> int:
    """One CSV row per swept pole product; `schedule` adds the schedule search."""
    with_schedule = opts.command == "schedule"
    p = plant_from_config(cfg)
    lams = sweep_from_config(cfg)
    section = "schedule" if with_schedule else "rates"
    n_max = opts.n_max if opts.n_max is not None else cfg.get_int(section, "n_max", 64)
    _at_least("n_max", n_max, 2)
    margin = opts.margin if opts.margin is not None else cfg.get_float("rates", "margin", 0.0)
    if not 0.0 <= margin < 1.0:
        raise ConfigError(f"'margin' must be in [0, 1), got {margin!r}")
    m_max = None
    if with_schedule:
        m_max = opts.m_max if opts.m_max is not None else cfg.get_int("schedule", "m_max", 32)
        _at_least("m_max", m_max, 1)
    p_fields = (p.n, p.a_star, p.eps, p.init_bounds)
    args = [(p_fields, lam, n_max, margin, m_max) for lam in lams]
    try:
        rows = _run_rows(_bounds_row, opts.jobs, args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    except CertificateError as exc:
        print(f"schedule failed: {exc}", file=sys.stderr)
        return 1
    _emit([RATES_CSV_HEADER] + [r[0] for r in rows], opts.out)
    for _, note in rows:
        if note:
            print(note)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _sim_one(p, sched, qs, horizon, mode, seed, i, init_mode):
    inst = sample_instance(
        p,
        mode,
        index=i % (2**p.n) if mode == "vertex" else None,
        seed=[seed, i, 0] if mode == "uniform" else None,
    )
    try:
        traj = run_closed_loop(
            p,
            inst,
            sched,
            qs,
            horizon,
            init_mode,
            init_seed=[seed, i, 1],
        )
    except SaturationError as exc:
        return (i, "saturated", str(exc), None)
    return (i, traj.verdict, "", traj)


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
    horizon = _at_least("horizon", cfg.get_int("simulate", "horizon", 500), 1)
    instances = _at_least("instances", cfg.get_int("simulate", "instances", 1), 1)
    mode = cfg.get_choice("simulate", "instance_mode", SAMPLING_MODES, "uniform")
    init_mode = cfg.get_choice("simulate", "init_mode", INIT_MODES, "uniform")
    seed = opts.seed if opts.seed is not None else cfg.get_int("simulate", "seed", 0)
    try:
        qs = schedule_quantizers(p, sched, family)
    except ValueError as exc:
        sizes_text = ", ".join(map(str, sched.sizes))
        raise ConfigError(f"no {family} quantizer layout for sizes {sizes_text}: {exc}") from None

    if instances == 1:
        i, verdict, diag, traj = _sim_one(
            p, sched, qs, horizon, mode, seed, 0, init_mode
        )
        if verdict == "saturated":
            print(f"run failed: {diag}", file=sys.stderr)
            return 1
        lines = [TRAJECTORY_CSV_HEADER]
        for r in traj.rows:
            lines.append(
                ",".join(
                    [
                        str(r.k),
                        fmt(r.y),
                        str(r.s),
                        fmt(r.sigma),
                        fmt(r.est.lo),
                        fmt(r.est.hi),
                        fmt(r.u),
                    ]
                )
            )
        lines.append(f"# verdict={traj.verdict}")
        _emit(lines, opts.out)
        print(f"verdict: {traj.verdict}")
        return 0

    results = [
        _sim_one(p, sched, qs, horizon, mode, seed, i, init_mode)
        for i in range(instances)
    ]
    lines = ["instance,verdict,steps,min_sigma_ratio"]
    counts: dict[str, int] = {}
    failed = 0
    for i, verdict, diag, traj in results:
        counts[verdict] = counts.get(verdict, 0) + 1
        if verdict == "saturated":
            failed += 1
            lines.append(f"{i},saturated,,")
            print(f"instance {i} failed: {diag}", file=sys.stderr)
        else:
            lines.append(
                f"{i},{verdict},{traj.steps},{fmt(traj.min_sigma_ratio())}"
            )
    _emit(lines, opts.out)
    summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"instances={instances} {summary}")
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
    _emit(lines, opts.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def canonical_cases() -> list[dict]:
    cases: list[dict] = []
    for lam in (2.0, 2.5, 3.0):
        for eps in (0.2, 0.35, 0.5):
            for n_level in (2, 3, 4, 5):
                cases.append(
                    {"kind": "boundary_synthesis", "lam": lam, "eps": eps, "N": n_level}
                )
            cases.append({"kind": "equalization", "lam": lam, "eps": eps})
    for m in (2, 3, 5):
        cases.append({"kind": "relaxation_kkt", "lam": 3.0, "eps": 0.35, "m": m})
    cases.append({"kind": "encode_decode", "lam": 3.0, "eps": 0.5, "N": 8})
    cases.append({"kind": "encode_decode", "lam": 3.0, "eps": 0.0, "N": 7})
    return cases


def run_verification(cases: list[dict], resolution: float = 1e-3, seed: int = 0):
    """Rows (case, closed_form, oracle, abs_diff, pass) for each oracle check."""
    if not cases:
        raise ValueError("no cases")
    rows = []
    for case in cases:
        kind = case["kind"]
        if kind == "boundary_synthesis":
            lam, eps, n_level = case["lam"], case["eps"], case["N"]
            closed = v_rate(lam, eps, n_level)
            res = grid_optimal_boundaries(lam, eps, n_level, resolution)
            ref = optimal_boundaries(lam, eps, n_level)
            sup = max(abs(a - b) for a, b in zip(res.h, ref.h))
            diff = abs(res.value - closed)
            ok = diff <= 1e-4 and sup <= 2e-3
            name = f"boundary_synthesis lam={lam} eps={eps} N={n_level}"
            rows.append((name, closed, res.value, diff, ok))
        elif kind == "equalization":
            lam, eps = case["lam"], case["eps"]
            plant = UncertainPlant(1, (lam,), (eps,), (1.0,))
            q_opt = optimal_boundaries(lam, eps, 8)
            q_uni = uniform_boundaries(8)
            got_opt = verify_equalization(q_opt, plant)
            got_uni = verify_equalization(q_uni, plant)
            rows.append(
                (
                    f"equalization_optimal lam={lam} eps={eps}",
                    1.0,
                    float(got_opt),
                    float(not got_opt),
                    got_opt,
                )
            )
            rows.append(
                (
                    f"equalization_uniform lam={lam} eps={eps}",
                    0.0,
                    float(got_uni),
                    float(got_uni),
                    not got_uni,
                )
            )
        elif kind == "relaxation_kkt":
            lam, eps, m = case["lam"], case["eps"], case["m"]
            ok = verify_relaxation_kkt(lam, eps, m, trials=10_000, seed=seed)
            rows.append((f"relaxation_kkt lam={lam} eps={eps} m={m}", 1.0, float(ok), float(not ok), ok))
        elif kind == "encode_decode":
            lam, eps, n_level = case["lam"], case["eps"], case["N"]
            q = (
                optimal_boundaries(lam, eps, n_level)
                if eps > 0
                else uniform_boundaries(n_level)
            )
            ok = exhaustive_encode_decode(q, max(1000, 10 * n_level))
            rows.append((f"encode_decode N={n_level} eps={eps}", 1.0, float(ok), float(not ok), ok))
        else:
            raise ValueError(f"unknown case kind {kind!r}")
    return rows


def cmd_verify(cfg: Config, opts) -> int:
    resolution = cfg.get_float("verify", "resolution", 1e-3)
    seed = opts.seed if opts.seed is not None else cfg.get_int("verify", "seed", 0)
    rows = run_verification(canonical_cases(), resolution, seed)
    lines = ["case,closed_form,oracle,abs_diff,pass"]
    fails = 0
    for name, closed, got, diff, ok in rows:
        lines.append(f"{name},{fmt(closed)},{fmt(got)},{fmt(diff)},{int(ok)}")
        if not ok:
            fails += 1
    _emit(lines, opts.out)
    print(f"verify: {len(rows) - fails}/{len(rows)} checks passed")
    return 1 if fails else 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quantstab",
        description="Rate-limited stabilization toolkit: bounds, schedules, simulation",
    )
    ap.add_argument("command", choices=["bounds", "simulate", "schedule", "verify", "quantizer"])
    ap.add_argument("--config", required=True, help="key-value config file")
    ap.add_argument("--out", default=None, help="output CSV path (default stdout)")
    ap.add_argument("--seed", type=int, default=None, help="master seed override")
    ap.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
    ap.add_argument("--m-max", type=int, default=None, help="max schedule period")
    ap.add_argument("--n-max", type=int, default=None, help="max alphabet size")
    ap.add_argument("--margin", type=float, default=None, help="stability margin")
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    ap = build_parser()
    opts = ap.parse_args(argv)
    try:
        cfg = load_config(opts.config)
        if opts.command in ("bounds", "schedule"):
            return cmd_sweep(cfg, opts)
        if opts.command == "simulate":
            return cmd_simulate(cfg, opts)
        if opts.command == "verify":
            return cmd_verify(cfg, opts)
        if opts.command == "quantizer":
            return cmd_quantizer(cfg, opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
