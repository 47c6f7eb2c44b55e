"""One workload in one fresh process: set up, run passes, check, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

perfbench/run.py starts this script; it prints one JSON object on its last
line. Set-up time is counted from the first line of this file, so it
includes the imports of numpy, scipy and gridsim.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from gridsim import (  # noqa: E402
    CostParams,
    GenSpec,
    SampleRequest,
    audit,
    fetch_amplitudes,
    forecast,
    generate,
    make_plan,
    merge,
    run_approx,
    run_campaign,
    run_full,
    sample_frugal,
    status,
)
from gridsim.circuit import GateKind, circuit_hash, gate_block  # noqa: E402
from gridsim.pathsum import run_batched  # noqa: E402
from gridsim.sampler import committed_indices  # noqa: E402
from gridsim.statevec import cluster_gates, read_amplitudes, write_amplitudes  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402

OUT = HERE / "out"
MIB = 1024.0 * 1024.0

# Fixed cost-model constants for the forecasts. They are not a calibration
# of any machine; the check compares the forecast with the closed form.
COST = dict(C1=2.0e-9, C2=1.5, C3=4.0e-9, omega={1: 1.0, 16: 1.5})
FORECAST_PROCS, FORECAST_NODES, FORECAST_MACHINE = 16, 4, "std-16-preemptible"


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def make_params() -> CostParams:
    return CostParams(COST["C1"], COST["C2"], COST["C3"], omega=dict(COST["omega"]))


def plan_forecast(params, plan, n_a):
    return forecast(
        params, plan.fidelity, plan.cut.n_a, plan.cut.n_b, plan.d_p, plan.d_b, plan.x_p, plan.x_b,
        n_a, p=FORECAST_PROCS, n_nodes=FORECAST_NODES, machine=FORECAST_MACHINE,
    )


def batched_gate_amps(circuit, plan) -> int:
    """Amplitude updates the batched path sum computes, counted from the plan.

    Every block-local gate, and each side of a cross gate, updates all
    2^q amplitudes of its block in every live row: one row per retained
    prefix before the first branch gate, one per retained path after it.
    """
    cut = plan.cut
    gates = sorted(circuit.gates, key=lambda g: g.cycle)
    cross = [i for i, g in enumerate(gates) if len(g.qubits) == 2 and gate_block(g, cut) == "cross"]
    split = cross[plan.x_p] if plan.x_p < len(cross) else len(gates)
    size = {"a": 1 << cut.n_a, "b": 1 << cut.n_b, "cross": (1 << cut.n_a) + (1 << cut.n_b)}
    rows = plan.retained.size
    total = 0
    for i, g in enumerate(gates):
        total += size[gate_block(g, cut)] * (rows if i < split else rows * plan.branch_space)
    return total


# ---------------------------------------------------------------------------
# Workloads. Each has setup(); run_pass() -> counts for the pass;
# finish_pass(), untimed, which keeps what the checks need; check() -> check
# details; and layers() -> its per-layer figures.


class Sample:
    """3x7 CZ 1+40+1 circuit; 2,000 bitstrings x M'=10 committed indices,
    amplitudes at f=1/16 with the batched path sum, frugal draw."""

    ROWS, COLS, DEPTH, FIDELITY, COUNT = 3, 7, 40, 1 / 16, 2000

    def __init__(self, seed, tr):
        self.seed, self.tr = seed, tr

    def setup(self):
        with self.tr.span("benchgen.generate"):
            self.circuit = generate(GenSpec(self.ROWS, self.COLS, self.DEPTH, seed=self.seed))
        with self.tr.span("pathsum.make_plan"):
            self.plan = make_plan(self.circuit, fidelity=self.FIDELITY, seed=self.seed)
        self.req = SampleRequest(self.circuit.n_qubits, self.COUNT, seed=self.seed)
        self.f_realized = self.plan.retained.size / self.plan.prefix_space
        # first-call warm-up: lowering cache and kernels, one prefix, one amplitude
        with self.tr.span("pathsum.warm_up"):
            run_batched(self.circuit, self.plan, [0], prefixes=self.plan.retained[:1])
        self.outputs = []

    def run_pass(self):
        rss0 = own_peak_rss_mb()
        with self.tr.span("sampler.committed_indices"):
            idx = committed_indices(self.req)
        with self.tr.span("pathsum.run_approx"):
            approx = run_approx(self.circuit, self.plan, idx)
        probs = np.abs(approx.amps) ** 2 / self.f_realized
        with self.tr.span("sampler.sample_frugal"):
            drawn = sample_frugal(self.req, idx, probs)
        if not self.outputs:
            self.rss_growth = own_peak_rss_mb() - rss0
            self.first = (idx, approx.amps, probs, drawn.indices)
        self.last = (approx.amps, drawn.indices)
        self.tr.count("sampler.accepted", drawn.accepted_count)
        return {
            "amps": idx.size,
            "paths": self.plan.retained.size * self.plan.branch_space,
            "samples": drawn.accepted_count,
        }

    def finish_pass(self):
        self.outputs.append(digest(self.last[0]) + digest(self.last[1]))

    def check(self):
        idx, amps, probs, accepted = self.first
        ref = reference.truncated_amplitudes(
            self.circuit, self.plan.cut, self.plan.x_p, self.plan.retained, idx
        )
        exact = fetch_amplitudes(run_full(self.circuit), idx).amps
        out = checks.check_sample(
            self.f_realized, 1 << self.circuit.n_qubits, amps, ref, exact, idx, probs, accepted,
            self.req.m_star,
        )
        checks.check_repeats(self.outputs)
        return out

    def layers(self):
        one = []
        for _ in range(2):
            t = time.perf_counter()
            run_approx(self.circuit, self.plan, self.first[0][:1])
            one.append(time.perf_counter() - t)
        run_s = med(self.tr.seconds("pathsum.run_approx"))
        gate_amps = batched_gate_amps(self.circuit, self.plan)
        m_proc = plan_forecast(make_params(), self.plan, self.req.batch_size).M_proc
        accepted = med(self.tr.counts["sampler.accepted"])
        return {
            "pathsum.make_plan_s": sum(self.tr.seconds("pathsum.make_plan")),
            "pathsum.retained_prefixes": self.plan.retained.size,
            "pathsum.run_approx_s": run_s,
            "pathsum.one_amp_s": med(one),
            "pathsum.collect_s": run_s - med(one),
            "pathsum.paths": self.plan.retained.size * self.plan.branch_space,
            "pathsum.gate_amps": gate_amps,
            "pathsum.gate_amps_per_s": gate_amps / run_s,
            "pathsum.rss_growth_mb": self.rss_growth,
            "sampler.committed_indices_s": med(self.tr.seconds("sampler.committed_indices")),
            "sampler.sample_frugal_s": med(self.tr.seconds("sampler.sample_frugal")),
            "sampler.accepted": accepted,
            "sampler.accept_ratio": accepted / self.req.batch_size,
            "costmodel.mem_forecast_ratio": m_proc / (max(self.rss_growth, 1e-3) * MIB),
        }


class Exact:
    """run_full on a fixed 3x7 CZ 1+40+1 circuit, then 1,000,000 frugal
    bitstrings from 10,000,000 committed probabilities."""

    ROWS, COLS, DEPTH, COUNT = 3, 7, 40, 1_000_000
    # The circuit is fixed so that reference.py's replay of it can be kept
    # in exact_reference.json; the seed drives the committed indices and
    # the acceptance stream.
    CIRCUIT_SEED = 0

    def __init__(self, seed, tr):
        self.seed, self.tr = seed, tr

    def setup(self):
        with self.tr.span("benchgen.generate"):
            self.circuit = generate(GenSpec(self.ROWS, self.COLS, self.DEPTH, seed=self.CIRCUIT_SEED))
        with self.tr.span("benchgen.audit"):
            self.path_space = audit(self.circuit).path_space
        self.req = SampleRequest(self.circuit.n_qubits, self.COUNT, seed=self.seed)
        self.outputs = []

    def run_pass(self):
        with self.tr.span("statevec.run_full"):
            state = run_full(self.circuit)
        with self.tr.span("sampler.committed_indices"):
            idx = committed_indices(self.req)
        with self.tr.span("statevec.fetch_amplitudes"):
            probs = np.abs(fetch_amplitudes(state, idx).amps) ** 2
        with self.tr.span("sampler.sample_frugal"):
            drawn = sample_frugal(self.req, idx, probs)
        self.state, self.accepted = state.amps, drawn.indices
        self.tr.count("sampler.accepted", drawn.accepted_count)
        return {"amps": probs.size, "paths": self.path_space, "samples": drawn.accepted_count}

    def finish_pass(self):
        self.outputs.append(digest(self.state) + digest(self.accepted))

    def check(self):
        ref = json.loads((HERE / "exact_reference.json").read_text())
        if ref["circuit_hash"] != circuit_hash(self.circuit):
            raise checks.CheckFailed("exact_reference.json was made for another circuit; rerun reference.py")
        ref_idx = np.array(ref["indices"], dtype=np.int64)
        ref_amps = np.array(ref["re"]) + 1j * np.array(ref["im"])
        sampled = np.abs(self.state[self.accepted].astype(np.complex128)) ** 2
        out = checks.check_exact(self.state, ref_idx, ref_amps, sampled)
        checks.check_repeats(self.outputs)
        return out

    def layers(self):
        run_s = med(self.tr.seconds("statevec.run_full"))
        accepted = med(self.tr.counts["sampler.accepted"])
        return {
            "statevec.run_full_s": run_s,
            "statevec.clusters": len(cluster_gates(self.circuit)),
            "statevec.gate_amps_per_s": len(self.circuit.gates) * float(1 << self.circuit.n_qubits) / run_s,
            "statevec.fetch_amplitudes_s": med(self.tr.seconds("statevec.fetch_amplitudes")),
            "sampler.committed_indices_s": med(self.tr.seconds("sampler.committed_indices")),
            "sampler.sample_frugal_s": med(self.tr.seconds("sampler.sample_frugal")),
            "sampler.accepted": accepted,
            "sampler.accept_ratio": accepted / self.req.batch_size,
        }


class Campaign:
    """run_campaign, workers=2, on a 4x5 CZ depth-24 circuit at f=1/256,
    x_b=0 (128 single-path jobs), 410 bitstrings x M'=10 requested
    amplitudes; a fixed 1/16 of the jobs die once mid-commit."""

    ROWS, COLS, DEPTH, FIDELITY, COUNT, WORKERS = 4, 5, 24, 1 / 256, 410, 2

    def __init__(self, seed, tr):
        self.seed, self.tr = seed, tr

    def setup(self):
        with self.tr.span("benchgen.generate"):
            self.circuit = generate(GenSpec(self.ROWS, self.COLS, self.DEPTH, seed=self.seed))
        with self.tr.span("pathsum.make_plan"):
            self.plan = make_plan(self.circuit, fidelity=self.FIDELITY, x_b=0, seed=self.seed)
        self.requests = committed_indices(SampleRequest(self.circuit.n_qubits, self.COUNT, seed=self.seed))
        # Job 16k+(k%2) of the sorted retained list dies once, for every k
        # below jobs/16: each of the two workers meets one in the first round.
        ret = self.plan.retained
        self.faults = {int(ret[16 * k + k % 2]): 1 for k in range(ret.size // 16)}
        self.outputs = []
        self.consistent = []
        self.merged = None

    def run_pass(self):
        OUT.mkdir(exist_ok=True)
        self.shard_dir = str(OUT / f"shards-{os.getpid()}-{len(self.outputs)}")
        shutil.rmtree(self.shard_dir, ignore_errors=True)
        with self.tr.span("orchestrator.run_campaign"):
            self.result = run_campaign(
                self.circuit, self.plan, self.requests, self.shard_dir,
                workers=self.WORKERS, fault_spec=self.faults,
            )
        with self.tr.span("orchestrator.status"):
            self.finished = status(self.circuit, self.plan, self.requests, self.shard_dir).complete
        with self.tr.span("orchestrator.merge"):
            self.last = merge(self.circuit, self.plan, self.requests, self.shard_dir)
        return {"amps": self.requests.size, "paths": self.plan.retained.size, "samples": self.COUNT}

    def finish_pass(self):
        try:
            if self.tr.enabled:
                self.record_directory(self.result, self.shard_dir, self.last)
        finally:
            shutil.rmtree(self.shard_dir, ignore_errors=True)
        self.consistent.append(self.finished and self.last.amps.tobytes() == self.result.batch.amps.tobytes())
        self.outputs.append(digest(self.last.amps))
        if self.merged is None:
            self.merged = self.last.amps

    def record_directory(self, res, shard_dir, merged):
        names = os.listdir(shard_dir)
        shards = [n for n in names if n.endswith(".amp")]
        attempts = 0
        for n in shards:
            with open(os.path.join(shard_dir, n)) as fh:
                for line in fh:
                    if not line.startswith("#"):
                        break
                    if line.startswith("# attempt "):
                        attempts += int(line.split()[2])
        per_job = list(res.per_job_seconds.values())
        self.tr.count("orchestrator.rounds", res.rounds)
        self.tr.count("orchestrator.attempts", attempts)
        self.tr.count("orchestrator.job_s_total", res.job_seconds_total)
        self.tr.count("orchestrator.job_s_median", statistics.median(per_job))
        self.tr.count("orchestrator.overhead_s", res.wall_seconds - res.job_seconds_total / res.workers)
        self.tr.count("orchestrator.shard_bytes", sum(os.path.getsize(os.path.join(shard_dir, n)) for n in shards))
        self.tr.count("orchestrator.stray_tmp_files", sum(".tmp." in n for n in names))
        self.tr.count(
            "orchestrator.child_peak_rss_mb", resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
        path = os.path.join(shard_dir, "roundtrip.txt")
        with self.tr.span("statevec.write_amplitudes"):
            write_amplitudes(path, merged, digits=17)
        with self.tr.span("statevec.read_amplitudes"):
            read_amplitudes(path)

    def check(self):
        in_process = run_batched(self.circuit, self.plan, self.requests).amps
        if not all(self.consistent):
            raise checks.CheckFailed("status or merge disagree with the campaign's own result")
        out = checks.check_campaign(self.merged, in_process)
        checks.check_repeats(self.outputs)
        return out

    def layers(self):
        c = {k: med(v) for k, v in self.tr.counts.items()}
        return {
            "pathsum.make_plan_s": sum(self.tr.seconds("pathsum.make_plan")),
            "pathsum.retained_prefixes": self.plan.retained.size,
            "pathsum.paths": self.plan.retained.size * self.plan.branch_space,
            "statevec.write_amplitudes_s": med(self.tr.seconds("statevec.write_amplitudes")),
            "statevec.read_amplitudes_s": med(self.tr.seconds("statevec.read_amplitudes")),
            "orchestrator.run_campaign_s": med(self.tr.seconds("orchestrator.run_campaign")),
            "orchestrator.overhead_s": c["orchestrator.overhead_s"],
            "orchestrator.job_s_total": c["orchestrator.job_s_total"],
            "orchestrator.job_s_median": c["orchestrator.job_s_median"],
            "orchestrator.rounds": c["orchestrator.rounds"],
            "orchestrator.attempts": c["orchestrator.attempts"],
            "orchestrator.useful_attempt_ratio": self.plan.retained.size / c["orchestrator.attempts"],
            "orchestrator.status_s": med(self.tr.seconds("orchestrator.status")),
            "orchestrator.merge_s": med(self.tr.seconds("orchestrator.merge")),
            "orchestrator.shard_bytes": c["orchestrator.shard_bytes"],
            "orchestrator.child_peak_rss_mb": max(self.tr.counts["orchestrator.child_peak_rss_mb"]),
            "orchestrator.stray_tmp_files": c["orchestrator.stray_tmp_files"],
        }


class Plan:
    """make_plan + committed indices + forecast for the paper's 7x7 and 7x8
    CZ 1+40+1 instances at f=0.005, x_p=28, 10^6 amplitudes each; plus the
    same grids with iSWAP under the default split, which fail today."""

    DEPTH, FIDELITY, X_P, COUNT = 40, 0.005, 28, 100_000
    GRIDS = ((7, 7), (7, 8))
    # iSWAP inputs do not depend on --seed, so their failures are the same
    # in every run.
    ISWAP_SEED = 0

    def __init__(self, seed, tr):
        self.seed, self.tr = seed, tr

    def setup(self):
        self.instances = []
        for rows, cols in self.GRIDS:
            with self.tr.span("benchgen.generate"):
                c = generate(GenSpec(rows, cols, self.DEPTH, seed=self.seed))
            self.instances.append(("cz", c, dict(x_p=self.X_P, seed=self.seed)))
        for rows, cols in self.GRIDS:
            with self.tr.span("benchgen.generate"):
                c = generate(GenSpec(rows, cols, self.DEPTH, two_qubit=GateKind.ISWAP, seed=self.ISWAP_SEED))
            self.instances.append(("iswap", c, dict(seed=self.ISWAP_SEED)))
        self.params = make_params()
        self.first = None  # (plan, forecast, n_a) per instance of the first pass, None where it failed
        self.outputs = []
        self.errors = []

    def run_pass(self):
        counts = {"amps": 0, "paths": 0, "samples": 0, "attempted": 0, "failed": 0}
        done = []
        for _, circuit, kw in self.instances:
            counts["attempted"] += 1
            try:
                with self.tr.span("pathsum.make_plan"):
                    plan = make_plan(circuit, fidelity=self.FIDELITY, **kw)
            except ValueError as exc:
                counts["failed"] += 1
                self.errors.append(f"{type(exc).__name__}: {exc}")
                done.append(None)
                continue
            req = SampleRequest(circuit.n_qubits, self.COUNT, seed=self.seed)
            with self.tr.span("sampler.committed_indices"):
                idx = committed_indices(req)
            with self.tr.span("costmodel.forecast"):
                fc = plan_forecast(self.params, plan, idx.size)
            counts["amps"] += idx.size
            counts["paths"] += plan.retained.size * plan.branch_space
            counts["samples"] += req.count
            self.tr.count("pathsum.retained_prefixes", plan.retained.size)
            done.append((plan, fc, idx.size))
        self.last = done
        return counts

    def finish_pass(self):
        self.outputs.append(tuple(None if d is None else digest(d[0].retained) for d in self.last))
        if self.first is None:
            self.first = self.last
        self.last = None

    def check(self):
        out = {}
        for (kind, circuit, _), item in zip(self.instances, self.first):
            if item is None:
                continue
            plan, fc, n_a = item
            out[f"{kind}_{circuit.rows}x{circuit.cols}"] = checks.check_retained(
                plan.retained, plan.prefix_space, plan.fidelity, plan.radices[: plan.x_p]
            )
            price = self.params.rate_card[FORECAST_MACHINE]["price_per_hour"]
            want = checks.closed_form_forecast(
                COST["C1"], COST["C2"], COST["C3"], self.params.C4, COST["omega"][FORECAST_PROCS], price,
                plan.fidelity, plan.cut.n_a, plan.cut.n_b, plan.d_p, plan.d_b, plan.x_p, plan.x_b,
                n_a, FORECAST_PROCS, FORECAST_NODES, self.params.bytes_per_amplitude,
            )
            checks.check_forecast(fc.__dict__, want)
        checks.check_repeats(self.outputs)
        out["failures"] = sorted(set(self.errors))
        return out

    def layers(self):
        return {
            "pathsum.make_plan_s": med(self.tr.seconds("pathsum.make_plan")),
            "pathsum.retained_prefixes": sum(self.tr.counts["pathsum.retained_prefixes"]) / len(self.outputs),
            "sampler.committed_indices_s": med(self.tr.seconds("sampler.committed_indices")),
            "costmodel.forecast_s": med(self.tr.seconds("costmodel.forecast")),
        }


WORKLOADS = {"sample": Sample, "exact": Exact, "campaign": Campaign, "plan": Plan}


def med(values) -> float:
    return float(statistics.median(values))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tr = Tracer(bool(args.trace))
    wl = WORKLOADS[args.workload](args.seed, tr)
    wl.setup()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    walls, cpus, rates = [], [], {"amps": [], "paths": [], "samples": []}
    attempted = failed = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        tr.pass_id = len(walls)
        c0, t0 = cpu_seconds(), time.perf_counter()
        with tr.span("pass"):
            counts = wl.run_pass()
        wall = time.perf_counter() - t0
        walls.append(wall)
        cpus.append(cpu_seconds() - c0)
        for key in rates:
            rates[key].append(counts[key] / wall)
        attempted += counts.get("attempted", 1)
        failed += counts.get("failed", 0)
        wl.finish_pass()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = max(own, kids) / 1024.0

    try:
        detail = wl.check()
        correct = True
    except checks.CheckFailed as exc:
        detail = {"check_failed": str(exc)}
        correct = False

    if args.trace:
        metrics = {"benchgen.generate_s": sum(tr.seconds("benchgen.generate", "setup")), **wl.layers()}
        OUT.mkdir(exist_ok=True)
        tr.write(str(OUT / f"{args.workload}_seed{args.seed}.trace.json"), {"workload": args.workload, "seed": args.seed})
    else:
        metrics = {
            "run_s": med(walls),
            "cpu_s": med(cpus),
            "peak_rss_mb": peak_rss_mb,
            "amps_per_s": med(rates["amps"]),
            "paths_per_s": med(rates["paths"]),
            "samples_per_s": med(rates["samples"]),
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "setup_s": setup_s,
                "metrics": metrics,
                "detail": {
                    "pass_wall_s": walls,
                    "pass_cpu_s": cpus,
                    "run_s": med(walls),
                    "checks": detail,
                },
                "versions": {
                    "python": sys.version.split()[0],
                    "numpy": np.__version__,
                    "scipy": scipy.__version__,
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
