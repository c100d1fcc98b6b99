"""Output checks for benchmark requests.

Each check holds on any seed. They look only at what the CLI wrote (the
CSV file, captured stdout and the exit code) and at what the generator
asked for, never at the program's internals. ``check`` returns the number
of CSV data rows and a list of problems; an empty list means the request
passed.
"""

from __future__ import annotations

import hashlib
import math

from workloads import VERDICTS, Request

RATES_HEADER = (
    "lambda,eps,R_nec,R_known_max,N_suf_opt,N_suf_uni,"
    "R_suf_phat,R_suf_martins,avg_rate_best,m_best"
)
SUMMARY_HEADER = "instance,verdict,steps,min_sigma_ratio"
TRAJECTORY_HEADER = "k,y,s,sigma,Y_lo,Y_hi,u"
QUANTIZER_HEADER = "l,h_l"
VERIFY_HEADER = "case,closed_form,oracle,abs_diff,pass"
VERIFY_CHECKS = 59  # rows of the canonical oracle case list

LOG_SLACK = 1e-12  # on top of rounding both sides to 12 significant digits
REL_GUARD = 1e-9  # the loop's own roundoff slack for set membership
PRINT_SLACK = 1e-11  # 12 significant digits in the CSV


def digest(csv_text: str) -> str:
    """Short SHA-256 digest of one request's CSV output."""
    return hashlib.sha256(csv_text.encode("utf-8")).hexdigest()[:16]


def data_rows(csv_text: str) -> list[str]:
    """CSV lines after the header, without '#' comment lines."""
    lines = csv_text.splitlines()
    return [ln for ln in lines[1:] if ln and not ln.startswith("#")]


def _header(csv_text: str, want: str, problems: list[str]) -> None:
    got = csv_text.split("\n", 1)[0]
    if got != want:
        problems.append(f"header {got!r} != {want!r}")


def _log2(field: str) -> float:
    """log2 of an alphabet size, rounded as the CSV rounds (12 digits)."""
    return float(f"{math.log2(int(field)):.12g}")


def _check_rates(req: Request, csv_text: str, stdout: str, problems: list[str]) -> None:
    _header(csv_text, RATES_HEADER, problems)
    rows = data_rows(csv_text)
    if len(rows) != 1:
        problems.append(f"{len(rows)} rows for a one-point sweep")
        return
    f = rows[0].split(",")
    if len(f) != 10:
        problems.append(f"row has {len(f)} fields")
        return
    lam, eps, r_nec, _, n_opt, n_uni, _, _, avg, m_best = f
    if float(lam) != req.expect["lam"] or float(eps) != req.expect["eps_n"]:
        problems.append(f"row is for lambda={lam}, eps={eps}")
    r_nec = float(r_nec)
    if req.command == "bounds":
        for name, n_suf in (("N_suf_opt", n_opt), ("N_suf_uni", n_uni)):
            if n_suf and not r_nec <= _log2(n_suf) + LOG_SLACK:
                problems.append(f"R_nec={r_nec} above log2({name}={n_suf})")
        if avg or m_best:
            problems.append("bounds row carries a schedule")
        return
    if not (avg and m_best and n_opt):
        problems.append("schedule row without avg_rate_best, m_best or N_suf_opt")
        return
    avg = float(avg)
    if not r_nec < avg <= _log2(n_opt) + LOG_SLACK:
        problems.append(
            f"need R_nec < avg_rate_best <= log2(N_suf_opt): {r_nec}, {avg}, {n_opt}"
        )
    if int(m_best) < 1:
        problems.append(f"m_best={m_best}")
    kind = "(exact)" if req.expect["n"] == 1 else "(heuristic)"
    notes = [ln for ln in stdout.splitlines() if " schedule=" in ln]
    if len(notes) != 1 or not notes[0].endswith(kind):
        problems.append(f"schedule note {notes!r} is not one {kind} line")


def _check_summary(req: Request, csv_text: str, stdout: str, problems: list[str]) -> None:
    _header(csv_text, SUMMARY_HEADER, problems)
    rows = data_rows(csv_text)
    instances, horizon = req.expect["instances"], req.expect["horizon"]
    if len(rows) != instances:
        problems.append(f"{len(rows)} rows for {instances} instances")
    for i, row in enumerate(rows):
        idx, verdict, steps, ratio = row.split(",")
        if int(idx) != i:
            problems.append(f"row {i} is instance {idx}")
            break
        if verdict not in VERDICTS:
            problems.append(f"instance {i}: verdict {verdict!r}")
            break
        steps, ratio = int(steps), float(ratio)
        if not 0 <= steps <= horizon or (
            verdict == "horizon_exhausted" and steps != horizon
        ):
            problems.append(f"instance {i}: {steps} steps, {verdict}")
            break
        if not 0.0 < ratio <= 1.0 or (verdict == "stabilized" and ratio >= 1e-12):
            problems.append(f"instance {i}: min_sigma_ratio {ratio}, {verdict}")
            break
    if not stdout.startswith(f"instances={instances} "):
        problems.append(f"summary line {stdout.strip()!r}")


def _check_trajectory(req: Request, csv_text: str, stdout: str, problems: list[str]) -> None:
    _header(csv_text, TRAJECTORY_HEADER, problems)
    lines = csv_text.splitlines()
    last = lines[-1] if lines else ""
    verdict = last.removeprefix("# verdict=")
    if verdict not in VERDICTS:
        problems.append(f"last line {last!r}")
    rows = data_rows(csv_text)
    horizon = req.expect["horizon"]
    if not rows or len(rows) - 1 > horizon or (
        verdict == "horizon_exhausted" and len(rows) - 1 != horizon
    ):
        problems.append(f"{len(rows)} rows, horizon {horizon}, {verdict}")
    for i, row in enumerate(rows):
        k, y, s, sigma, lo, hi, _ = row.split(",")
        y, sigma, lo, hi = float(y), float(sigma), float(lo), float(hi)
        slack = REL_GUARD * sigma + PRINT_SLACK * (abs(lo) + abs(hi) + abs(y))
        if int(k) != i or not 1 <= int(s) <= req.expect["N"] or not sigma > 0.0:
            problems.append(f"row {i}: {row}")
            break
        if not lo - slack <= y <= hi + slack:
            problems.append(f"row {i}: y={y} outside [{lo}, {hi}]")
            break
    if stdout.strip() != f"verdict: {verdict}":
        problems.append(f"stdout {stdout.strip()!r}")


def _check_quantizer(req: Request, csv_text: str, problems: list[str]) -> None:
    _header(csv_text, QUANTIZER_HEADER, problems)
    rows = data_rows(csv_text)
    k = (req.expect["N"] + 1) // 2
    h = [float(row.split(",")[1]) for row in rows]
    if [row.split(",")[0] for row in rows] != [str(l) for l in range(k + 1)]:
        problems.append(f"{len(rows)} boundary rows for N={req.expect['N']}")
    elif h[0] != 0.0 or h[-1] != 0.5 or any(a >= b for a, b in zip(h, h[1:])):
        problems.append(f"boundaries not increasing from 0 to 1/2: {h}")


def _check_verify(csv_text: str, stdout: str, problems: list[str]) -> None:
    _header(csv_text, VERIFY_HEADER, problems)
    rows = data_rows(csv_text)
    failed = [row for row in rows if not row.endswith(",1")]
    if len(rows) != VERIFY_CHECKS or failed:
        problems.append(f"{len(rows)} checks, failed: {failed[:3]}")
    want = f"verify: {VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"
    if stdout.strip() != want:
        problems.append(f"stdout {stdout.strip()!r}")


def check(req: Request, rc, csv_text: str, stdout: str) -> tuple[int, list[str]]:
    """(data rows, problems) for one finished request; rc 0 is required."""
    problems: list[str] = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        if req.kind in ("bounds", "schedule"):
            _check_rates(req, csv_text, stdout, problems)
        elif req.kind == "simulate_batch":
            _check_summary(req, csv_text, stdout, problems)
        elif req.kind == "simulate_single":
            _check_trajectory(req, csv_text, stdout, problems)
        elif req.kind == "quantizer":
            _check_quantizer(req, csv_text, problems)
        elif req.kind == "verify":
            _check_verify(csv_text, stdout, problems)
        else:
            problems.append(f"no check for request kind {req.kind!r}")
    except (ValueError, IndexError) as exc:  # malformed numbers or fields
        problems.append(f"unparsable output: {exc!r}")
    return len(data_rows(csv_text)), problems


def loop_steps(req: Request, csv_text: str) -> int:
    """Closed-loop steps a simulate request reports in its CSV."""
    if req.kind == "simulate_batch":
        return sum(int(row.split(",")[2]) for row in data_rows(csv_text))
    if req.kind == "simulate_single":
        return len(data_rows(csv_text)) - 1
    return 0
