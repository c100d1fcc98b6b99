#!/usr/bin/env python3
"""quantstab benchmark: seeded CLI workloads in a closed loop.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client sends CLI requests through ``quantstab.cli.main`` in process,
each with ``--jobs 1`` and ``--out`` set to a scratch file, and sends the
next request only after the previous one returned. Requests come in
stratified rounds (workloads.py). Every output is checked (checks.py); for
the default seed each CSV must also match its recorded digest
(digests.json).

``--trace 0`` measures the end-to-end metrics. A run makes PASSES passes
over one request list, each in a fresh worker process: the first pass runs
whole cycles of rounds (workloads.CYCLE) until ``--seconds / PASSES`` have
passed and at least MIN_REQUESTS requests are done, the others replay the
same requests. A request's CSV must be the same bytes in every pass.

Times are host-speed adjusted. The host's speed drifts by up to half
within seconds to minutes, so a fixed reference kernel is timed just
before every request, and each wall time is scaled by REF_S over the median
reference time around it (REF_WINDOW requests on each side). A request's
latency is the median of its scaled times over the passes. Wall-clock
figures are printed as comment lines. Set-up time is wall-clock time, taken
in fresh interpreters between the passes.

``--trace 1`` runs TRACE_ROUNDS rounds twice, untraced and then traced
(spans.py), each in a fresh worker, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See README.md for the metrics.
"""

from __future__ import annotations

import os

# one process, one thread: pin BLAS/OpenMP pools before numpy is imported
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from workloads import CYCLE, WORKLOADS, Request, make_round

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 0
PASSES = 3  # timed passes per run; a request's latency is its median pass
MIN_REQUESTS = 100  # per pass, so that at least ten latencies lie beyond p90
SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median
REF_S = 3e-3  # nominal reference-kernel time: times are scaled to this host speed
REF_WINDOW = 3  # requests on each side whose reference times set the speed
SETUP_REQUESTS = 200  # configs each set-up probe generates
DIGEST_REQUESTS = 400  # recorded default-seed digests per workload
TRACE_ROUNDS = {"scalar_schedule": 2, "ho_design": 3, "mc_batch": 3, "single_shot": 2}
DEADLINE_S = 170  # a run gives up (exit 1) rather than overrun 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metrics: traced function and the statistics reported for it
LAYER_STATS = (
    ("rates.search_periodic_schedule", ("calls", "s", "self_s")),
    ("rates.periodic_sufficient_test", ("calls", "s", "stable_frac")),
    ("quantizer.quantizer_for", ("calls", "s")),
    ("quantizer.expansion_profile", ("calls", "s")),
    ("rates.spectral_radius", ("calls", "s")),
    ("rates.sufficient_test", ("calls", "s")),
    ("rates.min_sufficient_N", ("calls", "s")),
    ("loop.run_closed_loop", ("calls", "s", "self_s")),
    ("loop.predict", ("calls", "s")),
    ("intervals.interval_product", ("calls", "s")),
    ("intervals.minkowski_sum", ("calls", "s")),
    ("plant.step", ("calls", "s")),
    ("plant.sample_instance", ("calls", "s")),
    ("quantizer.encode", ("calls", "s")),
    ("quantizer.decode", ("calls", "s")),
    ("cli.main", ("self_s",)),
    ("cli.load_config", ("s",)),
    ("oracle.grid_optimal_boundaries", ("calls", "s")),
    ("oracle.verify_equalization", ("s",)),
    ("oracle.verify_relaxation_kkt", ("s",)),
    ("oracle.exhaustive_encode_decode", ("s",)),
)
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "stable_frac": "ratio"}


def import_cli():
    """quantstab.cli from this checkout's src/, never from anywhere else."""
    pkg = SRC / "quantstab"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no quantstab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quantstab.cli

    if Path(quantstab.cli.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"benchmark: imported {quantstab.cli.__file__}, not {pkg}")
    return quantstab.cli


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# host speed


class ReferenceKernel:
    """Fixed interpreter and small-array numpy work, the mix quantstab does.

    Its time, against REF_S, tells how fast the host runs at the moment. It
    touches no quantstab code, so only the host's speed can change it.
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.a = np.random.default_rng(0).standard_normal((6, 6))

    def time(self) -> float:
        np, a = self.np, self.a
        t0 = time.perf_counter()
        s = 0
        for i in range(10_000):
            s += i * i % 7
        for _ in range(50):
            a @ a + np.abs(np.linalg.eigvals(a)).max()
        return time.perf_counter() - t0


def scaled_latencies(requests: list[dict]) -> list[float]:
    """Each request's wall time at the nominal host speed (REF_S).

    The speed is the median reference time of the request and its
    REF_WINDOW neighbours on each side in the same pass, so that one
    disturbed reference timing does not move it.
    """
    refs = [r["ref_s"] for r in requests]
    out = []
    for i, r in enumerate(requests):
        near = refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1]
        out.append(r["latency_s"] * REF_S / statistics.median(near))
    return out


# ---------------------------------------------------------------------------
# worker process: one pass over a request list


class Client:
    """Sends requests to ``cli.main`` one at a time, in this process."""

    def __init__(self, cli, workdir: Path) -> None:
        self.cli = cli
        self.cfg = workdir / "request.cfg"
        self.out = workdir / "request.csv"
        self.ref = ReferenceKernel()

    def send(self, req: Request) -> dict:
        self.cfg.write_text(req.config, encoding="utf-8")
        self.out.unlink(missing_ok=True)
        argv = [req.command, "--config", str(self.cfg), "--out", str(self.out)]
        argv += ["--jobs", "1", *req.args]
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        ref = self.ref.time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crashed request is a failed request
            rc, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        csv = self.out.read_text(encoding="utf-8") if self.out.exists() else ""
        rows, problems = checks.check(req, rc, csv, stdout.getvalue())
        if error:
            problems.insert(0, error)
        if stderr.getvalue():
            problems.append(f"stderr: {stderr.getvalue().strip()[:200]}")
        return {
            "latency_s": latency,
            "ref_s": ref,
            "rows": rows,
            "steps": checks.loop_steps(req, csv),
            "digest": checks.digest(csv),
            "problems": problems,
        }


def worker(workload: str, seed: int, rounds: int | None, seconds: float,
           trace: bool) -> dict:
    """Send `rounds` rounds, or whole cycles until time and count are met."""
    cli = import_cli()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        client = Client(cli, Path(tmp))
        client.send(make_round(workload, seed, -1)[0])  # warm-up, not counted
        recorder = None
        if trace:
            from spans import SpanRecorder

            recorder = SpanRecorder()
            recorder.install()
        sent: list[dict] = []
        r = 0
        t_start = time.perf_counter()
        try:
            while True:
                if rounds is not None and r == rounds:
                    break
                if (rounds is None and r % CYCLE[workload] == 0
                        and time.perf_counter() - t_start >= seconds
                        and len(sent) >= MIN_REQUESTS):
                    break
                for req in make_round(workload, seed, r):
                    if recorder is not None:
                        recorder.current_request = len(sent)
                    sent.append(client.send(req))
                r += 1
        finally:
            if recorder is not None:
                recorder.uninstall()
    result = {
        "rounds": r,
        "requests": sent,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    }
    if recorder is not None:
        result["layers"] = recorder.layer_totals()
        result["spans"] = len(recorder.name_id)
        recorder.write(WORK / f"spans-{workload}-seed{seed}.npz")
    return result


def setup_probe(workload: str, seed: int) -> dict:
    """Time importing quantstab plus generating the configs' text.

    Writing them is left out: writing 200 small files took 9 to 22 ms from
    one probe to the next, file-system noise next to about 12 ms of
    generating them.
    """
    t0 = time.perf_counter()
    import_cli()
    configs: list[str] = []
    r = 0
    while len(configs) < SETUP_REQUESTS:
        configs += [req.config for req in make_round(workload, seed, r)]
        r += 1
    elapsed = time.perf_counter() - t0
    return {"setup_s": elapsed}


# ---------------------------------------------------------------------------
# parent process


class Runner:
    """Starts the worker and probe processes of one run, one at a time."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, *extra: str) -> dict:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               self.workload, "--seed", str(self.seed), *extra]
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: {' '.join(extra)} failed:\n{proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])

    def probe(self) -> float:
        return self.child("--role", "probe")["setup_s"]

    def worker(self, rounds: int | None, seconds: float = 0.0, trace: int = 0) -> dict:
        extra = ["--role", "worker", "--trace", str(trace), "--seconds", str(seconds)]
        if rounds is not None:
            extra += ["--rounds", str(rounds)]
        return self.child(*extra)


def golden_digests(workload: str, seed: int) -> list[str]:
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return []
    return json.loads(DIGESTS.read_text())["workloads"].get(workload, [])


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, linear interpolation between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def report_failures(failures: list[tuple[int, list[str]]]) -> None:
    for i, problems in failures[:5]:
        print(f"# FAIL request {i}: {'; '.join(problems)[:300]}")


def end_to_end(runner: Runner, seconds: float) -> dict:
    setup = [runner.probe()]
    passes = [runner.worker(None, seconds / PASSES)]
    for _ in range(PASSES - 1):
        setup.append(runner.probe())
        passes.append(runner.worker(passes[0]["rounds"]))
    while len(setup) < SETUP_PROBES:
        setup.append(runner.probe())

    golden = golden_digests(runner.workload, runner.seed)
    n = len(passes[0]["requests"])
    rows, failures = 0, []
    for i in range(n):
        runs = [p["requests"][i] for p in passes]
        problems = [msg for run in runs for msg in run["problems"]]
        if len({run["digest"] for run in runs}) != 1:
            problems.append("CSV differs between passes")
        if i < len(golden) and runs[0]["digest"] != golden[i]:
            problems.append(f"CSV digest differs from the recorded one ({golden[i]})")
        if problems:
            failures.append((i, problems))
        rows += runs[0]["rows"]

    def timings(latencies: list[list[float]]) -> tuple[float, float, float, int]:
        """rows_per_s, p50, p90 and the count beyond p90 of per-pass latencies."""
        ms = [statistics.median(per_pass) * 1e3 for per_pass in zip(*latencies)]
        p90 = quantile(ms, 90)
        return rows * 1e3 / sum(ms), statistics.median(ms), p90, sum(v > p90 for v in ms)

    rps, p50, p90, beyond = timings([scaled_latencies(p["requests"]) for p in passes])
    wall = timings([[r["latency_s"] for r in p["requests"]] for p in passes])
    values = {
        "setup_s": statistics.median(setup),
        "rows_per_s": rps,
        "req_p50_ms": p50,
        "req_p90_ms": p90,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "rows_per_s": f"{rows} CSV data rows in {rows / rps:.3f} s of request time",
        "req_p50_ms": f"{n} requests, median of {PASSES} passes each",
        "req_p90_ms": f"{n} requests, {beyond} beyond p90",
        "peak_rss_mb": f"largest ru_maxrss of the {PASSES} worker processes",
    }
    ref_ms = statistics.median(r["ref_s"] for p in passes for r in p["requests"]) * 1e3
    print("# env " + json.dumps({"workload": runner.workload, "seed": runner.seed,
                                 **passes[0]["env"]}))
    print(f"# requests={n} rounds={passes[0]['rounds']} passes={PASSES} "
          f"failed={len(failures)} fail_frac={len(failures) / n:.6g}")
    print(f"# wall clock: reference kernel {ref_ms:.3f} ms (nominal {REF_S * 1e3:g} ms), "
          f"rows_per_s {wall[0]:.6g}, req_p50_ms {wall[1]:.6g}, req_p90_ms {wall[2]:.6g}")
    report_failures(failures)
    for name, unit in END_TO_END_UNITS.items():
        print(f"{name:<14} {values[name]:>14.6g} {unit:<7} ({notes[name]})")
    return {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()},
    }


def per_layer(runner: Runner) -> dict:
    rounds = TRACE_ROUNDS[runner.workload]
    plain = runner.worker(rounds)
    traced = runner.worker(rounds, trace=1)
    failures = []
    for i, (p, t) in enumerate(zip(plain["requests"], traced["requests"])):
        problems = p["problems"] + t["problems"]
        if p["digest"] != t["digest"]:
            problems.append("traced CSV differs from the untraced CSV")
        if problems:
            failures.append((i, problems))

    layers = traced["layers"]
    values: dict[str, tuple[float, str]] = {}
    for qualname, stats in LAYER_STATS:
        t = layers[qualname]
        for stat in stats:
            if stat == "stable_frac":
                v = t["stable"] / t["calls"] if t["calls"] else 0.0
            else:
                v = t[stat]
            values[f"{qualname}.{stat}"] = (v, STAT_UNITS[stat])
    values["loop.steps"] = (sum(r["steps"] for r in plain["requests"]), "count")
    t_plain = sum(scaled_latencies(plain["requests"]))
    t_traced = sum(scaled_latencies(traced["requests"]))
    values["trace.overhead_frac"] = ((t_traced - t_plain) / t_plain, "ratio")

    n = len(plain["requests"])
    print("# env " + json.dumps({"workload": runner.workload, "seed": runner.seed,
                                 **plain["env"]}))
    print(f"# traced {n} requests ({rounds} rounds), scaled request time: "
          f"untraced {t_plain:.3f} s, traced {t_traced:.3f} s, {traced['spans']} spans "
          f"written to .bench_work/spans-{runner.workload}-seed{runner.seed}.npz")
    report_failures(failures)
    for name, (v, unit) in values.items():
        print(f"{name:<44} {v:>14.6g} {unit}")
    return {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def record_digests() -> None:
    """Write digests.json from the first DIGEST_REQUESTS default-seed requests."""
    table = {}
    for workload in WORKLOADS:
        per_round = len(make_round(workload, DEFAULT_SEED, 0))
        rounds = -(-DIGEST_REQUESTS // per_round)
        reqs = worker(workload, DEFAULT_SEED, rounds, 0.0, False)["requests"]
        bad = [(i, q["problems"]) for i, q in enumerate(reqs) if q["problems"]]
        if bad:
            raise SystemExit(f"{workload}: failing requests {bad[:3]}")
        table[workload] = [q["digest"] for q in reqs[:DIGEST_REQUESTS]]
        print(f"{workload}: {DIGEST_REQUESTS} digests", file=sys.stderr)
    text = json.dumps({"seed": DEFAULT_SEED, "workloads": table}, indent=0)
    DIGESTS.write_text(text + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite digests.json from the default-seed streams")
    ap.add_argument("--role", choices=("worker", "probe"), help=argparse.SUPPRESS)
    ap.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    opts = ap.parse_args(argv)
    if opts.record_digests:
        record_digests()
        return 0
    if opts.workload is None:
        ap.error("--workload is required")
    if opts.role == "probe":
        print(json.dumps(setup_probe(opts.workload, opts.seed)))
        return 0
    if opts.role == "worker":
        res = worker(opts.workload, opts.seed, opts.rounds, opts.seconds, bool(opts.trace))
        print(json.dumps(res))
        return 0

    if not (SRC / "quantstab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no quantstab sources under {SRC}")
    runner = Runner(opts.workload, opts.seed)
    if opts.trace:
        result = per_layer(runner)
    else:
        result = end_to_end(runner, opts.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
