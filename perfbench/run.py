"""gridsim benchmark: four seeded workloads, each in its own fresh process.

    python3 perfbench/run.py --workload sample|exact|campaign|plan|all \
        --seed N --seconds S --trace 0|1

With --trace 0 the last line of output is one JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run. --workload all runs the four workloads one after the
other and prints a table per workload. Result and trace files go to
perfbench/out/. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sample", "exact", "campaign", "plan")
SETUP_REPEATS = 3  # set-up is timed in this many fresh processes; the median is reported
CHILD_TIMEOUT_S = 170


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without leaving it; 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_worker(args: list[str], env: dict) -> dict:
    """Run perfbench/worker.py in a fresh process group; return its last JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker {args} timed out after {CHILD_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # campaign children, should any outlive the worker
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise SystemExit(f"worker {args} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"worker {args} printed nothing")
    return json.loads(lines[-1])


def run_one(workload: str, seed: int, seconds: int, trace: int, env: dict) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(run_worker(base + ["--setup-only"], env)["setup_s"])
    res = run_worker(base, env)
    setups.append(res["setup_s"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = dict(res["metrics"])
    wanted = spec["per_layer" if trace else "end_to_end"]
    if not trace:
        values["setup_s"] = statistics.median(setups)
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise SystemExit(f"worker reported metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # a layer the workload does not use reads 0; every end-to-end metric is measured
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0) if trace else values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    line = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    record = {
        "meta": {
            "git_sha": git_sha(ROOT),
            "python": res["versions"]["python"],
            "numpy": res["versions"]["numpy"],
            "scipy": res["versions"]["scipy"],
            "nproc": nproc(),
            "machine": platform.machine(),
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "result": line,
        "setup_s_samples": setups,
        "detail": res["detail"],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}_seed{seed}_trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return line


def main() -> int:
    ap = argparse.ArgumentParser(description="gridsim benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # on SIGTERM, unwind so that run_worker stops the worker's process group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "gridsim" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"{ROOT} is not a gridsim checkout with src/gridsim and BENCHMARK.json", file=sys.stderr)
        return 2
    env = dict(os.environ)
    threads = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        line = run_one(name, args.seed, args.seconds, args.trace, env)
        if args.workload == "all":
            print(f"== {name}: correct={line['correct']} attempted={line['attempted']} failed={line['failed']}")
            for key, m in line["metrics"].items():
                print(f"   {key:36s} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
