"""Shows that each workload's check passes on right outputs and rejects
wrong ones.

    python3 perfbench/selftest.py

Exits 0 when every right output passes and every wrong output is
rejected; prints one line per case. Takes about a minute.
"""
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import json  # noqa: E402

import numpy as np  # noqa: E402

from gridsim import (  # noqa: E402
    GenSpec,
    SampleRequest,
    fetch_amplitudes,
    generate,
    make_plan,
    run_approx,
    run_campaign,
    run_full,
    sample_frugal,
)
from gridsim.circuit import Circuit  # noqa: E402
from gridsim.pathsum import run_batched  # noqa: E402
from gridsim.sampler import committed_indices  # noqa: E402
from gridsim.statevec import read_amplitudes  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from worker import Exact, Sample  # noqa: E402

FAILURES = []


def expect(name: str, passes: bool, fn, *args) -> None:
    try:
        fn(*args)
        ok, why = passes, "passed"
    except checks.CheckFailed as exc:
        ok, why = not passes, f"rejected: {exc}"
    print(f"{'ok ' if ok else 'BAD'} {name}: {why}")
    if not ok:
        FAILURES.append(name)


def sample_cases() -> None:
    seed = 1
    c = generate(GenSpec(Sample.ROWS, Sample.COLS, Sample.DEPTH, seed=seed))
    plan = make_plan(c, fidelity=Sample.FIDELITY, seed=seed)
    other = make_plan(c, fidelity=Sample.FIDELITY, seed=seed + 1)
    f = plan.retained.size / plan.prefix_space
    req = SampleRequest(c.n_qubits, Sample.COUNT, seed=seed)
    idx = committed_indices(req)
    n = 1 << c.n_qubits
    ref = reference.truncated_amplitudes(c, plan.cut, plan.x_p, plan.retained, idx)
    exact = fetch_amplitudes(run_full(c), idx).amps

    def run(amps, rescale):
        probs = np.abs(amps) ** 2 / (f if rescale else 1.0)
        drawn = sample_frugal(req, idx, probs)
        return (f, n, amps, ref, exact, idx, probs, drawn.indices, req.m_star)

    good = run_approx(c, plan, idx).amps
    expect("sample: amplitudes of the plan, rescaled", True, checks.check_sample, *run(good, True))
    expect(
        "sample: amplitudes from another plan seed", False, checks.check_sample,
        *run(run_approx(c, other, idx).amps, True),
    )
    expect("sample: probabilities left unrescaled", False, checks.check_sample, *run(good, False))


def exact_cases() -> None:
    c = generate(GenSpec(Exact.ROWS, Exact.COLS, Exact.DEPTH, seed=Exact.CIRCUIT_SEED))
    ref = json.loads((HERE / "exact_reference.json").read_text())
    ref_idx = np.array(ref["indices"])
    ref_amps = np.array(ref["re"]) + 1j * np.array(ref["im"])
    dropped = Circuit(c.rows, c.cols, c.gates[: len(c.gates) // 2] + c.gates[len(c.gates) // 2 + 1 :])
    req = SampleRequest(c.n_qubits, 100_000, seed=1)
    idx = committed_indices(req)
    for name, circuit, passes in (
        ("exact: state of the circuit", c, True),
        ("exact: state with one gate dropped", dropped, False),
    ):
        state = run_full(circuit).amps
        drawn = sample_frugal(req, idx, np.abs(state[idx]) ** 2)
        sampled = np.abs(state[drawn.indices].astype(np.complex128)) ** 2
        expect(name, passes, checks.check_exact, state, ref_idx, ref_amps, sampled)


def campaign_cases() -> None:
    c = generate(GenSpec(4, 4, 16, seed=2))
    plan = make_plan(c, fidelity=1 / 16, x_b=0, seed=2)
    requests = committed_indices(SampleRequest(c.n_qubits, 100, seed=2))
    in_process = run_batched(c, plan, requests).amps
    shard_dir = tempfile.mkdtemp(dir=HERE / "out")
    try:
        run_campaign(c, plan, requests, shard_dir, workers=1)
        names = sorted(p for p in Path(shard_dir).iterdir() if p.suffix == ".amp")
        shards = [read_amplitudes(p)[0].amps for p in names]
    finally:
        shutil.rmtree(shard_dir)
    expect("campaign: every shard merged", True, checks.check_campaign, sum(shards), in_process)
    expect("campaign: merge missing one shard", False, checks.check_campaign, sum(shards[1:]), in_process)


def plan_cases() -> None:
    c = generate(GenSpec(7, 7, 40, seed=1))
    plan = make_plan(c, fidelity=0.005, x_p=28, seed=1)
    args = (plan.prefix_space, plan.fidelity, plan.radices[: plan.x_p])
    expect("plan: retained set of the plan", True, checks.check_retained, plan.retained, *args)
    expect(
        "plan: retained set with one prefix removed", False, checks.check_retained,
        np.delete(plan.retained, plan.retained.size // 2), *args,
    )
    expect(
        "plan: the first ids instead of a uniform sample", False, checks.check_retained,
        np.arange(plan.retained.size), *args,
    )


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    for cases in (sample_cases, exact_cases, campaign_cases, plan_cases):
        cases()
    if FAILURES:
        print(f"{len(FAILURES)} case(s) misbehaved: {', '.join(FAILURES)}")
        return 1
    print("every check passes right outputs and rejects wrong ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
