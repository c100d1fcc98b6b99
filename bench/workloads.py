"""Seeded request streams for the benchmark workloads.

A workload is an endless stream of rounds. A round is a stratified batch of
CLI requests: one request per stratum, so every round has the same mix of
request kinds and cost classes. Each stratum has a fixed pool of CYCLE
variants (small moves of its inputs, drawn independently of the seed), and
in each cycle of CYCLE consecutive rounds, starting at round 0, a stratum
uses each of its variants once. The seed decides the order of the
variants, the order of the requests in a round and the instance,
initial-output and oracle seeds. So runs of whole cycles send the same
inputs, up to those seeds, whatever the seed, and cost the same.

Only the standard library is used here, and nothing from ``quantstab``: the
program sees the generated config files and nothing else. Every plant has
its leading box strictly expanding (|a_n*| - eps_n > 1, with a margin of at
least 0.2), so a failed request always points to the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("scalar_schedule", "ho_design", "mc_batch", "single_shot")

# rounds per cycle, and variants per stratum; one cycle is 100 to 112
# requests, the fewest a timed pass may hold
CYCLE = {"scalar_schedule": 7, "ho_design": 5, "mc_batch": 10, "single_shot": 3}

VERDICTS = ("stabilized", "diverged", "horizon_exhausted")


@dataclass(frozen=True)
class Request:
    """One CLI call: ``quantstab <command> --config <file> <args>``.

    ``expect`` carries what the output checks need to know about the
    request (sweep point, instance count, horizon, ...).
    """

    kind: str
    command: str
    config: str
    args: tuple[str, ...] = ()
    expect: dict = field(default_factory=dict)


class Strata:
    """Variant pools of one workload, seen from one seed and round."""

    def __init__(self, workload: str, seed: int, r: int) -> None:
        self.workload, self.seed, self.r = workload, seed, r

    def index(self, stratum: str) -> int:
        """This round's variant of a stratum, in range(CYCLE[workload])."""
        order = list(range(CYCLE[self.workload]))
        random.Random(f"{self.workload}/{self.seed}/{stratum}").shuffle(order)
        return order[self.r % len(order)]

    def variant(self, stratum: str) -> random.Random:
        """A seed-independent generator for this round's variant of a stratum."""
        return random.Random(f"{self.workload}/{stratum}/{self.index(stratum)}")


def _num(x: float, digits: int = 4) -> str:
    """Config text for a float; the value the program parses is round(x)."""
    return repr(round(x, digits))


def _valid(a_star, eps) -> None:
    """Refuse a plant whose leading box does not expand (a generator bug)."""
    if not abs(round(a_star[-1], 4)) - round(eps[-1], 6) > 1.0:
        raise ValueError(f"invalid plant a_star={a_star}, eps={eps}")


def _plant_section(a_star, eps) -> str:
    _valid(a_star, eps)
    return (
        "[plant]\n"
        f"n = {len(a_star)}\n"
        "a_star = " + ", ".join(_num(v) for v in a_star) + "\n"
        "eps = " + ", ".join(_num(v, 6) for v in eps) + "\n"
    )


def _jitter(rng: random.Random, x: float, rel: float, digits: int = 4) -> float:
    return round(x * rng.uniform(1.0 - rel, 1.0 + rel), digits)


def _leading(rng: random.Random, eps_lo: float, eps_hi: float) -> tuple[float, float]:
    """(lambda, eps_n) with lambda - eps_n in [1.2, 2.4]."""
    eps_n = round(rng.uniform(eps_lo, eps_hi), 6)
    lam = round(eps_n + rng.uniform(1.2, 2.4), 4)
    return lam, eps_n


def _rate_request(command, a_star, eps, args=()) -> Request:
    """A one-point sweep at lambda = |a_n*|."""
    lam = round(abs(a_star[-1]), 4)
    cfg = _plant_section(a_star, eps) + (
        "[sweep]\n"
        f"lambda_min = {_num(lam)}\n"
        f"lambda_max = {_num(lam)}\n"
        "lambda_step = 0.05\n"
    )
    return Request(
        kind=command,
        command=command,
        config=cfg,
        args=tuple(args),
        expect={"n": len(a_star), "lam": lam, "eps_n": round(eps[-1], 6)},
    )


# ---------------------------------------------------------------------------
# scalar_schedule: n = 1 schedule rows on the criterion-9 grid

# criterion-9 sweep grid: lambda = 1.40, 1.45, ..., 4.00 at eps = 0.35.
# The benchmark uses its lower 16 points (1.40 .. 2.15); see README.md.
SCALAR_GRID = tuple(round(1.40 + 0.05 * j, 2) for j in range(16))
SCALAR_EPS = 0.35
SCALAR_OFFSETS = (-0.006, -0.004, -0.002, 0.0, 0.002, 0.004, 0.006)


def _scalar_schedule_round(s: Strata) -> list[Request]:
    reqs = []
    for point in SCALAR_GRID:
        # every grid point once, moved a little so that no request repeats
        lam = round(point + SCALAR_OFFSETS[s.index(f"lambda{point}")], 4)
        args = ("--m-max", "32", "--n-max", "64")
        reqs.append(_rate_request("schedule", (lam,), (SCALAR_EPS,), args))
    return reqs


# ---------------------------------------------------------------------------
# ho_design: bounds and schedule rows for n = 2..6

HO_BOUNDS_ORDERS = (2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 5, 6)
# (order, schedule period cap) of the regular schedule strata; the dearest
# ones, with the near-cyclic schedule, are a fifth of a round, so the 90th
# latency percentile falls inside that group rather than on its edge
HO_SCHEDULES = ((2, 6), (2, 6), (3, 5), (4, 4), (5, 5), (6, 4))


def _regular_plant(rng: random.Random, n: int):
    lam, eps_n = _leading(rng, 0.05, 0.4)
    sign = rng.choice((-1.0, 1.0))
    a = [round(rng.uniform(-0.8, 0.8), 4) for _ in range(n - 1)] + [sign * lam]
    e = [round(rng.uniform(0.0, 0.1), 6) for _ in range(n - 1)] + [eps_n]
    return a, e


def _near_cyclic_plant(rng: random.Random, n: int):
    """Zero lower coefficients, tiny eps_1: the rate vector w is near-cyclic."""
    lam, eps_n = _leading(rng, 0.05, 0.4)
    a = [0.0] * (n - 1) + [lam]
    e = [round(rng.uniform(1e-3, 1e-2), 6)] + [0.0] * (n - 2) + [eps_n]
    return a, e


def _ho_design_round(s: Strata) -> list[Request]:
    reqs = []
    for k, n in enumerate(HO_BOUNDS_ORDERS):
        a, e = _regular_plant(s.variant(f"bounds{k}"), n)
        reqs.append(_rate_request("bounds", a, e))
    for k, (n, m_max) in enumerate(HO_SCHEDULES):
        a, e = _regular_plant(s.variant(f"schedule{k}"), n)
        reqs.append(_rate_request("schedule", a, e, ("--m-max", str(m_max))))
    # the near-cyclic minority
    for n in (2, 3):
        a, e = _near_cyclic_plant(s.variant(f"cyclic_bounds{n}"), n)
        reqs.append(_rate_request("bounds", a, e))
    a, e = _near_cyclic_plant(s.variant("cyclic_schedule2"), 2)
    reqs.append(_rate_request("schedule", a, e, ("--m-max", "4")))
    return reqs


# ---------------------------------------------------------------------------
# mc_batch: Monte-Carlo simulate requests, summary CSV

# (order, instance mode, a_star, eps, N): stabilizing, diverging and
# horizon-exhausted batches
MC_STRATA = (
    (2, "uniform", (0.2, 2.2), (0.04, 0.1), 6),
    (2, "uniform", (0.3, 1.6), (0.02, 0.3), 6),
    (2, "vertex", (0.9, 1.9), (0.05, 0.2), 5),
    (2, "vertex", (-0.4, 2.6), (0.08, 0.15), 8),
    (1, "vertex", (2.7,), (0.3,), 2),
    (1, "vertex", (3.0,), (0.2,), 8),
    (1, "uniform", (3.4,), (0.4,), 3),
    (2, "uniform", (0.5, 2.0), (0.05, 0.2), 4),
    (1, "uniform", (1.8,), (0.1,), 3),
    (2, "vertex", (-0.7, 3.1), (0.03, 0.25), 5),
    (1, "uniform", (2.5,), (0.3,), 4),
)
MC_INSTANCES = {1: 32, 2: 12}
MC_HORIZON = 200


def _simulate_config(a, e, sim: dict) -> str:
    body = "".join(f"{k} = {v}\n" for k, v in sim.items())
    return _plant_section(a, e) + "[simulate]\n" + body


def _mc_batch_round(s: Strata, rng: random.Random) -> list[Request]:
    reqs = []
    for k, (n, mode, a, e, N) in enumerate(MC_STRATA):
        pool = s.variant(f"batch{k}")
        a = [_jitter(pool, x, 0.01) for x in a]
        e = [_jitter(pool, x, 0.05, 6) for x in e]
        instances = MC_INSTANCES[n]
        sim = {"N": N, "instances": instances, "instance_mode": mode,
               "horizon": MC_HORIZON}
        reqs.append(
            Request(
                kind="simulate_batch",
                command="simulate",
                config=_simulate_config(a, e, sim),
                args=("--seed", str(rng.randrange(1 << 30))),
                expect={"instances": instances, "horizon": MC_HORIZON},
            )
        )
    return reqs


# ---------------------------------------------------------------------------
# single_shot: one trajectory per request, quantizer export, verify

# horizon strata of the flat runs; the four longest hold the 90th latency
# percentile, below the verify request and above everything else
FLAT_HORIZONS = ((300, 600), (600, 1200), (1200, 2400)) + ((4000, 5000),) * 4

# (a_star, eps, N) of the ordinary single trajectories, n = 1..3
TRAJECTORY_STRATA = (
    ((2.5,), (0.3,), 5),
    ((0.3, 2.2), (0.02, 0.2), 6),
    ((0.2, -0.3, 1.8), (0.01, 0.02, 0.1), 6),
    ((3.1,), (0.2,), 4),
    ((-0.5, 2.9), (0.03, 0.15), 5),
    ((1.7,), (0.15,), 3),
    ((0.6, 1.9), (0.05, 0.1), 4),
    ((2.2,), (0.0,), 3),
    ((2.4,), (0.25,), 6),
    ((-0.2, 2.1), (0.04, 0.12), 7),
)
TRAJECTORY_HORIZON = 2000


def _trajectory_request(a, e, N, horizon, mode, seed) -> Request:
    sim = {"N": N, "instances": 1, "instance_mode": mode, "horizon": horizon}
    return Request(
        kind="simulate_single",
        command="simulate",
        config=_simulate_config(a, e, sim),
        args=("--seed", str(seed)),
        expect={"horizon": horizon, "N": N},
    )


def _single_shot_round(s: Strata, rng: random.Random) -> list[Request]:
    reqs = []
    # critical flat case: eps = 0 and N = |a| keeps the scaling constant,
    # so the run lasts the whole horizon
    for k, (lo, hi) in enumerate(FLAT_HORIZONS):
        pool = s.variant(f"flat{k}")
        L = pool.choice((2, 3, 4))
        horizon = pool.randrange(lo, hi + 1)
        reqs.append(_trajectory_request(
            [float(L)], [0.0], L, horizon, "uniform", rng.randrange(1 << 30)))
    for k, (a, e, N) in enumerate(TRAJECTORY_STRATA + TRAJECTORY_STRATA[:2]):
        pool = s.variant(f"trajectory{k}")
        a = [_jitter(pool, x, 0.01) for x in a]
        e = [_jitter(pool, x, 0.05, 6) for x in e]
        mode = pool.choice(("uniform", "vertex"))
        reqs.append(_trajectory_request(
            a, e, N, TRAJECTORY_HORIZON, mode, rng.randrange(1 << 30)))
    # quantizer boundary export
    for k, family in enumerate(("optimal",) * 9 + ("uniform",) * 5):
        pool = s.variant(f"quantizer{k}")
        lam, eps_n = _leading(pool, 0.0, 0.5)
        N = pool.randrange(2, 65)
        cfg = _plant_section([lam], [eps_n])
        cfg += f"[quantizer]\nN = {N}\nfamily = {family}\n"
        reqs.append(Request(kind="quantizer", command="quantizer", config=cfg,
                            expect={"N": N}))
    # oracle checks
    cfg = f"[verify]\nresolution = 0.001\nseed = {rng.randrange(1 << 30)}\n"
    reqs.append(Request(kind="verify", command="verify", config=cfg))
    return reqs


def make_round(workload: str, seed: int, r: int) -> list[Request]:
    """Requests of round r of a workload's stream for a seed, in sending order."""
    s = Strata(workload, seed, r)
    rng = random.Random(f"{workload}/{seed}/{r}")
    if workload == "scalar_schedule":
        reqs = _scalar_schedule_round(s)
    elif workload == "ho_design":
        reqs = _ho_design_round(s)
    elif workload == "mc_batch":
        reqs = _mc_batch_round(s, rng)
    elif workload == "single_shot":
        reqs = _single_shot_round(s, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs
