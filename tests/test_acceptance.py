"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints exactly one PASS/FAIL line,
and fails with the list of violated conditions. Sweeps that the batch tool
is responsible for go through the CLI and its emitted CSV; library-level
claims call the public API directly.
"""

import math
import time

import numpy as np

from quantstab.cli import main
from quantstab.loop import run_closed_loop
from quantstab.oracle import (
    grid_optimal_boundaries,
    verify_equalization,
    verify_relaxation_kkt,
)
from quantstab.plant import UncertainPlant, sample_instance
from quantstab.quantizer import (
    SaturationError,
    optimal_boundaries,
    uniform_boundaries,
    v_rate,
)
from quantstab.rates import (
    HMatrix,
    Schedule,
    necessary_rate,
    relaxed_min_rate,
    spectral_radius,
)

# column indices in the rates CSV
LAM, EPS, RNEC, RKNOWN, NOPT, NUNI, RSUF, RSUFP, AVG, MBEST = range(10)

PARAM_GRID = [
    (lam, eps)
    for lam in (2.0, 2.5, 3.0)
    for eps in (0.2, 0.35, 0.5)
]


def _report(num: int, problems: list[str], detail: str) -> None:
    ok = not problems
    status = "PASS" if ok else "FAIL"
    text = detail if ok else "; ".join(problems)
    print(f"criterion {num:2d}: {status}  {text}")
    assert ok, f"criterion {num}: {text}"


def _run_csv(tmp_path, name: str, cfg_text: str, argv: list[str]) -> list[list[str]]:
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(cfg_text, encoding="utf-8")
    out = tmp_path / f"{name}.csv"
    rc = main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]])
    assert rc == 0, f"CLI exited {rc}"
    lines = out.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def _sweep_cfg(n, a_star, eps, lo, hi, step):
    return (
        f"[plant]\nn = {n}\na_star = {a_star}\neps = {eps}\n\n"
        f"[sweep]\nlambda_min = {lo}\nlambda_max = {hi}\nlambda_step = {step}\n"
    )


def test_criterion_01_necessary_rate_sweep(tmp_path):
    t0 = time.perf_counter()
    rows = _run_csv(
        tmp_path, "c1", _sweep_cfg(1, 2.0, 0.35, 1.5, 5.0, 0.05), ["bounds"]
    )
    problems = []
    if len(rows) != 71:
        problems.append(f"expected 71 rows, got {len(rows)}")
    r_prev = -math.inf
    for row in rows:
        lam, r_nec, r_known = float(row[LAM]), float(row[RNEC]), float(row[RKNOWN])
        if r_nec <= r_prev:
            problems.append(f"rate not increasing at lambda={lam}")
        r_prev = r_nec
        if r_nec > 1.0 + 1e-9 and r_nec <= r_known:
            problems.append(f"rate below known-plant bound at lambda={lam}")
    for lam in (1.5, 2.0, 3.0, 4.0, 5.0):
        if abs(necessary_rate(lam, 0.0) - math.log2(lam)) > 1e-12:
            problems.append(f"zero-uncertainty limit wrong at lambda={lam}")
        for e in (1e-3, 1e-6):
            if abs(necessary_rate(lam, e) - math.log2(lam)) > 5e-3:
                problems.append(f"not continuous at eps={e}, lambda={lam}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s, limit 1s")
    _report(1, problems, f"71-point sweep monotone and continuous ({elapsed:.2f}s)")


def test_criterion_02_second_order_alphabet_sizes(tmp_path):
    t0 = time.perf_counter()
    rows = _run_csv(
        tmp_path,
        "c2",
        _sweep_cfg(2, "1.0, 2.0", "0.10, 0.35", 2.0, 6.0, 0.1),
        ["bounds"],
    )
    problems = []
    if len(rows) != 41:
        problems.append(f"expected 41 rows, got {len(rows)}")
    strict = 0
    for row in rows:
        lam = float(row[LAM])
        if not row[NOPT] or not row[NUNI]:
            problems.append(f"no certified size at lambda={lam}")
            continue
        n_opt, n_uni = int(row[NOPT]), int(row[NUNI])
        if n_opt > n_uni:
            problems.append(f"optimal needs more levels at lambda={lam}")
        if n_opt < n_uni:
            strict += 1
    if strict == 0:
        problems.append("optimal never strictly better than uniform")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.2f}s, limit 10s")
    _report(
        2,
        problems,
        f"41 rows, optimal <= uniform throughout, strictly better on {strict} ({elapsed:.2f}s)",
    )


def test_criterion_03_boundary_synthesis_against_oracle():
    t0 = time.perf_counter()
    problems = []
    worst_v = worst_h = 0.0
    for lam, eps in PARAM_GRID:
        for n_level in (2, 3, 4, 5):
            res = grid_optimal_boundaries(lam, eps, n_level, 1e-3)
            dv = abs(res.value - v_rate(lam, eps, n_level))
            dh = max(
                abs(a - b)
                for a, b in zip(res.h, optimal_boundaries(lam, eps, n_level).h)
            )
            worst_v, worst_h = max(worst_v, dv), max(worst_h, dh)
            if dv > 1e-4:
                problems.append(f"value off by {dv:.2g} at ({lam},{eps},{n_level})")
            if dh > 2e-3:
                problems.append(f"boundary off by {dh:.2g} at ({lam},{eps},{n_level})")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.2f}s, limit 60s")
    _report(
        3,
        problems,
        f"36 grid searches, worst value diff {worst_v:.2g}, "
        f"worst boundary diff {worst_h:.2g} ({elapsed:.2f}s)",
    )


def test_criterion_04_rate_equalization():
    problems = []
    for lam, eps in PARAM_GRID:
        p = UncertainPlant(1, (lam,), (eps,), (1.0,))
        for n_level in (2, 3, 4, 5):
            if not verify_equalization(optimal_boundaries(lam, eps, n_level), p):
                problems.append(f"optimal not equalized at ({lam},{eps},{n_level})")
            if n_level == 2:
                # two levels admit a single layout, so uniform is optimal
                if uniform_boundaries(2).h != optimal_boundaries(lam, eps, 2).h:
                    problems.append(f"two-level layouts differ at ({lam},{eps})")
            elif verify_equalization(uniform_boundaries(n_level), p):
                problems.append(f"uniform equalized at ({lam},{eps},{n_level})")
    _report(4, problems, "optimal equalized, uniform never (N >= 3), on all 36 cases")


def test_criterion_05_monte_carlo_stabilization():
    t0 = time.perf_counter()
    problems = []
    cases = [
        (UncertainPlant(1, (3.0,), (0.5,), (1.0,)), Schedule((8,))),
        (UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0)), Schedule((6,))),
    ]
    worst_ratio = 0.0
    saturated = 0
    for p, sched in cases:
        for i in range(100):
            inst = sample_instance(p, "uniform", seed=[23, p.n, i])
            try:
                traj = run_closed_loop(
                    p, inst, sched, "optimal", 500, "uniform", [23, p.n, i, 1]
                )
            except SaturationError:
                saturated += 1
                continue
            ratio = traj.min_sigma_ratio()
            worst_ratio = max(worst_ratio, ratio)
            if ratio >= 1e-6:
                problems.append(f"n={p.n} run {i} only contracted to {ratio:.2g}")
            if traj.verdict == "diverged":
                problems.append(f"n={p.n} run {i} diverged")
    if saturated:
        problems.append(f"{saturated} runs saturated the quantizer")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.2f}s, limit 10s")
    _report(
        5,
        problems,
        f"200 runs contract below 1e-6 (worst {worst_ratio:.2g}), "
        f"no saturation, invariants on ({elapsed:.2f}s)",
    )


def test_criterion_06_critical_rate_is_flat():
    p = UncertainPlant(1, (2.0,), (0.0,), (1.0,))
    inst = sample_instance(p, "vertex", index=0)
    traj = run_closed_loop(p, inst, Schedule((2,)), "uniform", 500, "uniform", [6])
    sigmas = [r.sigma for r in traj.rows]
    problems = []
    if len(sigmas) != 501:
        problems.append(f"expected 501 records, got {len(sigmas)}")
    drops = sum(b < a * (1.0 - 1e-12) for a, b in zip(sigmas, sigmas[1:]))
    if drops:
        problems.append(f"scaling decreased on {drops} steps")
    if traj.verdict != "horizon_exhausted":
        problems.append(f"verdict {traj.verdict}")
    _report(6, problems, "scaling never decreases at the critical alphabet size")


def test_criterion_07_relaxation_optimum():
    problems = []
    want = 2.0 ** necessary_rate(3.0, 0.35)
    for m in (2, 3, 5):
        sol = relaxed_min_rate(3.0, 0.35, m)
        if abs(sol.psi) > 1e-10:
            problems.append(f"m={m}: residual {sol.psi:.2g}")
        for c in sol.components:
            if abs(c - want) > 1e-9 * want:
                problems.append(f"m={m}: component {c!r} != 2^R_nec")
        if not verify_relaxation_kkt(3.0, 0.35, m, trials=10_000, seed=0):
            problems.append(f"m={m}: random probe beat the claimed optimum")
    _report(7, problems, "all slots sit at 2^R_nec and survive 10^4 probes")


def test_criterion_08_scalar_bound_ordering(tmp_path):
    rows = _run_csv(
        tmp_path, "c8", _sweep_cfg(1, 2.0, 0.1, 1.5, 4.0, 0.1), ["bounds"]
    )
    problems = []
    if len(rows) != 26:
        problems.append(f"expected 26 rows, got {len(rows)}")
    spot = None
    for row in rows:
        lam = float(row[LAM])
        if not row[RSUF] or not row[RSUFP]:
            problems.append(f"missing comparison bound at lambda={lam}")
            continue
        r_nec, r_suf, r_suf_p = float(row[RNEC]), float(row[RSUF]), float(row[RSUFP])
        if not r_nec < r_suf_p < r_suf:
            problems.append(f"ordering violated at lambda={lam}")
        if lam == 2.0:
            spot = (r_nec, r_suf_p, r_suf)
    if spot is None:
        problems.append("lambda=2 row missing")
    else:
        for got, ref, name in zip(spot, (1.07414, 1.15200, 1.89893), ("nec", "suf'", "suf")):
            if abs(got - ref) > 1e-4:
                problems.append(f"{name} at lambda=2 is {got}, expected {ref}")
    _report(8, problems, "necessary < sufficient' < sufficient on all 26 rows")


def test_criterion_09_periodic_schedules_beat_static(tmp_path):
    t0 = time.perf_counter()
    rows = _run_csv(
        tmp_path,
        "c9",
        _sweep_cfg(1, 2.0, 0.35, 1.40, 4.00, 0.05),
        ["schedule", "--m-max", "32", "--n-max", "64"],
    )
    problems = []
    if len(rows) != 53:
        problems.append(f"expected 53 rows, got {len(rows)}")
    strict = 0
    for row in rows:
        lam = float(row[LAM])
        if not row[AVG] or not row[NOPT]:
            problems.append(f"no schedule found at lambda={lam}")
            continue
        r_nec, avg, static = float(row[RNEC]), float(row[AVG]), math.log2(int(row[NOPT]))
        if avg <= r_nec:
            problems.append(f"average rate at or below necessary at lambda={lam}")
        if avg > static + 1e-12:
            problems.append(f"schedule worse than static at lambda={lam}")
        if avg < static - 1e-12:
            strict += 1
    if 2 * strict < len(rows):
        problems.append(f"strict improvement on only {strict}/{len(rows)} rows")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        problems.append(f"runtime {elapsed:.2f}s, limit 120s")
    _report(
        9,
        problems,
        f"53 rows bracketed by necessary and static rates, "
        f"strictly better on {strict} ({elapsed:.2f}s)",
    )


def _positive_root(w: np.ndarray) -> float:
    """Bisection on the decreasing map z -> sum_i w_i z^-i at height 1."""

    def f(z: float) -> float:
        return sum(wi * z ** -(i + 1) for i, wi in enumerate(w) if wi) - 1.0

    lo, hi = 1e-300, 1.0 + float(np.sum(w))
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


def test_criterion_10_spectral_radius_vs_root_bracketing():
    rng = np.random.default_rng(2026)
    problems = []
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 7))
        w = rng.uniform(0.0, 2.0, n)
        w[rng.random(n) < 0.3] = 0.0
        if not w.any():
            w[int(rng.integers(n))] = float(rng.uniform(0.1, 1.0))
        got = spectral_radius(HMatrix(n, tuple(w)))
        ref = _positive_root(w)
        rel = abs(got - ref) / max(ref, 1e-12)
        worst = max(worst, rel)
        if rel > 1e-9:
            problems.append(f"trial {trial}: radius {got!r} vs root {ref!r}")
    # primitive but nearly cyclic rate patterns, where an iteration on the
    # matrix itself converges slowly
    near_cyclic = [(1e-12, 0.0, 0.0, 0.0, 0.0, 0.9), (1e-6, 0.0, 1.0), (1e-9, 1.0)]
    t0 = time.perf_counter()
    radii = [spectral_radius(HMatrix(len(w), w)) for w in near_cyclic]
    elapsed = time.perf_counter() - t0
    for w, got in zip(near_cyclic, radii):
        ref = _positive_root(np.array(w))
        if abs(got - ref) > 1e-12 * ref:
            problems.append(f"near-cyclic {w}: radius {got!r} vs root {ref!r}")
    if elapsed >= 0.05:
        problems.append(f"near-cyclic radii took {elapsed * 1e3:.1f} ms, limit 50 ms")
    _report(
        10,
        problems,
        f"1000 random companions within 1e-9 (worst {worst:.2g}), "
        f"3 near-cyclic within 1e-12 in {elapsed * 1e3:.2f} ms",
    )
