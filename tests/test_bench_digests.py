"""The benchmark's own requests still give the CSV bytes its digests record.

Replays the first rounds of each default-seed workload stream of
bench/workloads.py through cli.main in process, as the benchmark client
sends them, and compares sha256(csv)[:16] of each output with
bench/digests.json. Both files are only read.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from quantstab import cli

ROOT = Path(__file__).resolve().parents[1]


def load_workloads(monkeypatch):
    """bench/workloads.py as a module, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def csv_digest(req, tmp_path: Path) -> str:
    """Digest of the CSV that one request writes, empty text when it writes none."""
    cfg, out = tmp_path / "request.cfg", tmp_path / "request.csv"
    cfg.write_text(req.config, encoding="utf-8")
    out.unlink(missing_ok=True)
    cli.main([req.command, "--config", str(cfg), "--out", str(out), "--jobs", "1", *req.args])
    csv = out.read_text(encoding="utf-8") if out.exists() else ""
    return hashlib.sha256(csv.encode("utf-8")).hexdigest()[:16]


# round 0 of every workload, and the whole first cycle of the exact scalar search
ROUNDS = {"scalar_schedule": 7, "ho_design": 1, "mc_batch": 1, "single_shot": 1}


@pytest.mark.parametrize("workload", sorted(ROUNDS))
def test_bench_requests_match_recorded_digests(tmp_path, monkeypatch, workload):
    workloads = load_workloads(monkeypatch)
    recorded = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))
    assert recorded["seed"] == 0
    reqs = [req for r in range(ROUNDS[workload]) for req in workloads.make_round(workload, 0, r)]
    golden = recorded["workloads"][workload][: len(reqs)]
    assert len(golden) == len(reqs)
    got = [csv_digest(req, tmp_path) for req in reqs]
    differ = [
        (i, req.command, req.args, req.config)
        for i, (req, a, b) in enumerate(zip(reqs, got, golden))
        if a != b
    ]
    assert not differ, differ[:3]
