"""perfbench's `campaign` workload, run once with tracing on: the only run
of its `Campaign.record_directory`, which reads the campaign result's
`rounds` and `workers` and each shard's `# attempt` header line."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_traced_campaign_workload(tmp_path):
    pytest.importorskip("scipy")  # the worker imports it
    # a copy, so that the worker's outputs stay out of the repository's perfbench/out
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in [*ROOT.glob("perfbench/*.py"), *ROOT.glob("perfbench/*.json")]:
        shutil.copy(path, bench)
    (tmp_path / "src").symlink_to(ROOT / "src")
    args = ["--workload", "campaign", "--seed", "1", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(bench / "worker.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"], out["detail"]
    assert out["failed"] == 0
    assert out["metrics"]["orchestrator.rounds"] == 2
    assert out["metrics"]["orchestrator.attempts"] == 248
