"""perfbench's `campaign`, `sample` and `plan` workloads, each run once with
tracing on. The campaign run is the only run of its `Campaign.record_directory`,
which reads the campaign result's `rounds` and `workers` and each shard's
`# attempt` header line. The sample run checks the threaded path sum
against perfbench's complex128 replay, its fidelity and norm laws and a
second pass's digest. The plan run checks each CZ plan's retained prefixes
and its forecast against the closed form."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _traced_run(tmp_path, workload, failed=0):
    pytest.importorskip("scipy")  # the worker imports it
    # a copy, so that the worker's outputs stay out of the repository's perfbench/out
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in [*ROOT.glob("perfbench/*.py"), *ROOT.glob("perfbench/*.json")]:
        shutil.copy(path, bench)
    (tmp_path / "src").symlink_to(ROOT / "src")
    args = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(bench / "worker.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"], out["detail"]
    assert out["failed"] == failed
    return out


def test_traced_campaign_workload(tmp_path):
    metrics = _traced_run(tmp_path, "campaign")["metrics"]
    assert metrics["orchestrator.rounds"] == 2
    assert metrics["orchestrator.attempts"] == 248


def test_traced_sample_workload(tmp_path):
    metrics = _traced_run(tmp_path, "sample")["metrics"]
    assert metrics["pathsum.retained_prefixes"] == 256
    assert metrics["pathsum.paths"] == 2048


def test_traced_plan_workload(tmp_path):
    # the two iSWAP instances fail with the named int64-limit error; the
    # CZ plans pass check_retained and the closed-form forecast check
    out = _traced_run(tmp_path, "plan", failed=2)
    assert out["attempted"] == 4
    assert out["metrics"]["pathsum.retained_prefixes"] == 2684354
