"""End-to-end acceptance gate: one test per shipped guarantee.

Each test is a complete scenario with pinned circuits, seeds, and
tolerances, so a run prints exactly one pass/fail line per guarantee.
They are slower than the unit tests by design; the whole file targets
a small number of minutes on one desktop core.
"""

import os
import tempfile
import time

import numpy as np
import pytest

from oracles import naive_state, total_variation

from gridsim.benchgen import GenSpec, audit, generate
from gridsim.circuit import GateKind, all_cuts
from gridsim.costmodel import (
    BenchResult,
    CostParams,
    calibrate,
    total_seconds,
)
from gridsim.orchestrator import (
    CampaignError,
    MergeError,
    merge,
    run_campaign,
    status,
)
from gridsim.pathsum import (
    estimate_fidelity,
    make_plan,
    retained_prefixes,
    run_approx,
    schmidt_decompose,
)
from gridsim.sampler import (
    SampleRequest,
    committed_indices,
    frugal_tv_bound,
    plan_basic,
    porter_thomas_fit,
    sample_frugal,
    tail_mass,
)
from gridsim.statevec import (
    fetch_amplitudes,
    read_amplitudes,
    run_full,
    write_amplitudes,
)
from gridsim.validate import (
    calibrate_delta,
    claimant_round,
    issue_challenge,
    verifier_cut,
    verifier_round,
)


def probs_of(state) -> np.ndarray:
    p = np.abs(state.amps.ravel().astype(np.complex128)) ** 2
    return p / p.sum()


# -- 1. engine equivalence ---------------------------------------------------

# 200 circuits spanning 8..20 qubits and depths 8..24; thin grids keep
# modest depth so the full path enumeration stays cheap
C1_SHAPES = [
    (2, 4, 30, 24), (3, 3, 30, 24), (2, 5, 25, 20), (3, 4, 25, 24),
    (2, 6, 20, 16), (2, 7, 15, 14), (3, 5, 15, 20), (4, 4, 15, 20),
    (2, 8, 10, 10), (3, 6, 8, 16), (4, 5, 7, 12),
]


def c1_corpus():
    specs = []
    i = 0
    for rows, cols, count, cap in C1_SHAPES:
        depths = list(range(8, cap + 1))
        for j in range(count):
            specs.append(GenSpec(rows, cols, depths[j % len(depths)], "v2", seed=100 + i))
            i += 1
    return specs


def test_c01_exact_hybrid_and_naive_engines_agree():
    """Three independent engines produce the same amplitudes on 200 circuits."""
    start = time.time()
    specs = c1_corpus()
    assert len(specs) == 200
    sizes = {s.rows * s.cols for s in specs}
    depths = {s.depth for s in specs}
    assert min(sizes) == 8 and max(sizes) == 20
    assert min(depths) == 8 and max(depths) == 24
    naive_legs = 0
    for k, spec in enumerate(specs):
        circuit = generate(spec)
        n = circuit.n_qubits
        state = run_full(circuit)
        if n <= 16:
            idx = np.arange(1 << n, dtype=np.int64)
        else:
            idx = np.sort(
                np.random.default_rng(1000 + k).choice(1 << n, 4096, replace=False)
            ).astype(np.int64)
        reference = fetch_amplitudes(state, idx)
        plan = make_plan(circuit, fidelity=1.0, seed=0)
        hybrid = run_approx(circuit, plan, idx)
        err = float(np.max(np.abs(reference.amps - hybrid.amps)))
        assert err <= 1e-4, f"{spec}: hybrid deviates {err:.2e}"
        if n <= 14:
            naive = naive_state(circuit).ravel()
            err = float(
                np.max(np.abs(state.amps.ravel().astype(np.complex128) - naive))
            )
            assert err <= 1e-5, f"{spec}: state vector deviates {err:.2e} from replay"
            naive_legs += 1
    assert naive_legs >= 100
    assert time.time() - start < 600


# -- 2+3. truncated fidelity and norm track the retained fraction ------------

C23_FRACTIONS = (0.25, 0.125, 0.0625, 0.03125)


@pytest.fixture(scope="module")
def c23_sweep():
    circuit = generate(GenSpec(4, 4, 32, "v2", seed=7))
    state = run_full(circuit)
    n_states = 1 << 16
    start = time.time()
    out = {}
    for f in C23_FRACTIONS:
        fes, norms = [], []
        for s in range(20):
            extra = np.random.default_rng(3000 + s).permutation(n_states)[: 100000 - n_states]
            idx = np.concatenate([np.arange(n_states), extra]).astype(np.int64)
            plan = make_plan(circuit, fidelity=f, x_b=0, seed=200 + s)
            assert len(plan.retained) == round(f * plan.prefix_space)
            batch = run_approx(circuit, plan, idx)
            reference = fetch_amplitudes(state, idx)
            fes.append(estimate_fidelity(reference, batch))
            norms.append(float(np.sum(np.abs(batch.amps[:n_states]) ** 2)))
        out[f] = (np.array(fes), np.array(norms))
    out["elapsed"] = time.time() - start
    return out


@pytest.mark.slow
def test_c02_estimated_fidelity_tracks_retained_fraction(c23_sweep):
    """f_e equals the kept path fraction within 2% on average, 3 sigma per run."""
    for f in C23_FRACTIONS:
        fes, _ = c23_sweep[f]
        assert abs(fes.mean() / f - 1) <= 0.02, f"f={f}: mean f_e off by >2%"
        sigma = fes.std(ddof=1)
        worst = float(np.max(np.abs(fes - f)))
        assert worst <= 3 * sigma, f"f={f}: a run sits {worst / sigma:.2f} sigma out"
    assert c23_sweep["elapsed"] < 900


@pytest.mark.slow
def test_c03_state_norm_tracks_retained_fraction(c23_sweep):
    """Total squared norm of the truncated state equals the kept fraction within 5%."""
    for f in C23_FRACTIONS:
        _, norms = c23_sweep[f]
        assert abs(norms.mean() / f - 1) <= 0.05, f"f={f}: mean norm off by >5%"
        sigma = norms.std(ddof=1)
        worst = float(np.max(np.abs(norms - f)))
        assert worst <= 3 * sigma, f"f={f}: a run sits {worst / sigma:.2f} sigma out"


# -- 4. work is linear in the retained fraction ------------------------------

@pytest.mark.slow
def test_c04_work_scales_linearly_with_fidelity():
    """Retention counts follow the rounding rule; campaign CPU scales with f."""
    for space_bits in (4, 8, 12, 16):
        space = 1 << space_bits
        for f in (1.0, 0.5, 0.25, 0.125, 0.01, 1e-6):
            kept = retained_prefixes(space, f, seed=0)
            assert kept.size == max(1, round(f * space))

    circuit = generate(GenSpec(4, 4, 28, "v2", seed=4))
    requests = np.arange(256, dtype=np.int64)
    cpu = {}
    for f in (1.0, 0.125):
        plan = make_plan(circuit, fidelity=f, x_p=8, x_b=6, seed=1)
        with tempfile.TemporaryDirectory() as shard_dir:
            result = run_campaign(circuit, plan, requests, shard_dir, workers=1)
        assert len(result.per_job_seconds) == max(1, round(f * 256))
        cpu[f] = result.job_seconds_total
    ratio = cpu[0.125] / (cpu[1.0] / 8)
    assert abs(ratio - 1) <= 0.15, f"f=1/8 CPU is {ratio:.3f}x of an eighth of f=1"


# -- 5. output distribution is chaotic ---------------------------------------

def test_c05_output_probabilities_follow_the_chaotic_law():
    """Exact and truncated-renormalized outputs both fit the exponential law."""
    circuit = generate(GenSpec(4, 4, 25, "v2", seed=11))
    p = probs_of(run_full(circuit))
    idx = np.random.default_rng(77).integers(0, 1 << 16, size=100000)
    exact_fit = porter_thomas_fit(p[idx])
    assert exact_fit.ks_statistic < 0.01, f"exact KS {exact_fit.ks_statistic:.4f}"

    plan = make_plan(circuit, fidelity=0.125, x_b=0, seed=21)
    batch = run_approx(circuit, plan, np.arange(1 << 16, dtype=np.int64))
    q = np.abs(batch.amps) ** 2
    q = q / q.sum()
    trunc_fit = porter_thomas_fit(q[idx])
    assert trunc_fit.ks_statistic < 0.02, f"renormalized KS {trunc_fit.ks_statistic:.4f}"


# -- 6. sampling budget, bias, and tail mass ---------------------------------

def test_c06_sampling_budget_bias_and_tail():
    """The acceptance budget, the frugal bias bound, and the tail estimator hold."""
    assert plan_basic(49, 1e-3) == 41

    # induced distribution of frugal sampling, enumerated exactly at 12 qubits
    circuit = generate(GenSpec(3, 4, 20, "v2", seed=2))
    p = probs_of(run_full(circuit))
    n_states = p.size
    accept = np.minimum(1.0, p * n_states / 10)
    q = accept / accept.sum()
    tv_qp = total_variation(q, p)
    assert tv_qp <= frugal_tv_bound(10)
    assert tv_qp <= 1e-3

    # a million streamed samples against the induced distribution
    req = SampleRequest(12, count=1000000, mode="frugal", m_star=10, seed=123)
    idx = committed_indices(req)
    drawn = sample_frugal(req, idx, p[idx])
    counts = np.bincount(drawn.indices, minlength=n_states)
    emp = counts / drawn.accepted_count
    tv_emp = total_variation(emp, q)
    rng = np.random.default_rng(99)
    null = [
        total_variation(rng.multinomial(drawn.accepted_count, q) / drawn.accepted_count, q)
        for _ in range(10)
    ]
    mu0, s0 = float(np.mean(null)), float(np.std(null, ddof=1))
    assert tv_emp <= mu0 + 3 * s0, f"stream TV {tv_emp:.5f} vs null {mu0:.5f}+-{s0:.5f}"
    assert total_variation(emp, p) <= tv_qp + mu0 + 3 * s0 + 1e-3

    # tail mass of the cap on a chaotic 16-qubit state
    circuit16 = generate(GenSpec(4, 4, 25, "v2", seed=13))
    p16 = probs_of(run_full(circuit16))
    est = tail_mass(p16, 16, m_star=10, seed=5)
    target = 11 * np.exp(-10.0)
    z = abs(est.estimate - target) / est.sigma
    assert z <= 3, f"tail estimate {est.estimate:.3e} is {z:.2f} sigma from {target:.3e}"


# -- 7. two-qubit gate choice sets the path space ----------------------------

def test_c07_iswap_squares_the_path_space():
    """Swapping CZ for iSWAP multiplies the path space by exactly 2^x."""
    assert schmidt_decompose(GateKind.CZ).rank == 2
    assert schmidt_decompose(GateKind.ISWAP).rank == 4
    assert schmidt_decompose(np.eye(4, dtype=complex)).rank == 1
    for depth in (12, 16, 20):
        cz_audit = audit(generate(GenSpec(4, 4, depth, "v2", seed=1)))
        isw_audit = audit(
            generate(GenSpec(4, 4, depth, "v2", two_qubit=GateKind.ISWAP, seed=1))
        )
        x = cz_audit.cross_gates
        assert isw_audit.cross_gates == x
        assert cz_audit.path_space == 1 << x
        assert isw_audit.path_space == (1 << x) << x


# -- 8. generator discipline shows up in audits ------------------------------

C8_SHAPES = ((3, 4), (4, 4), (3, 5), (2, 7), (4, 5))


def test_c08_audits_separate_the_two_generations():
    """New-rule circuits never chain CZ-T-CZ; old-rule deep circuits mostly do."""
    for i in range(100):
        rows, cols = C8_SHAPES[i % 5]
        report = audit(generate(GenSpec(rows, cols, 16 + (i % 5), "v2", seed=900 + i)))
        assert report.czt_runs == 0
        assert report.has_final_h is True
        assert report.repeat_violations == 0
    with_runs = 0
    for i in range(100):
        rows, cols = C8_SHAPES[i % 5]
        report = audit(generate(GenSpec(rows, cols, 16 + (i % 5), "v1", seed=900 + i)))
        if report.czt_runs >= 1:
            with_runs += 1
    assert with_runs >= 95, f"only {with_runs}/100 old-rule circuits show a run"


# -- 9. campaigns survive killed jobs ----------------------------------------

def test_c09_campaign_survives_killed_jobs_bit_identically():
    """Kill 10 of 32 jobs mid-commit; the resumed merge is bit-identical."""
    circuit = generate(GenSpec(3, 4, 16, "v2", seed=6))
    plan = make_plan(circuit, fidelity=1.0, x_p=5, seed=0)
    assert len(plan.retained) == 32
    requests = np.arange(4096, dtype=np.int64)
    victims = {int(p): 1 for p in plan.retained[1::3][:10]}
    assert len(victims) == 10

    with tempfile.TemporaryDirectory() as clean_dir:
        clean = run_campaign(circuit, plan, requests, clean_dir, workers=4)

        # in-process retry: the coordinator reruns the killed jobs itself
        with tempfile.TemporaryDirectory() as shard_dir:
            retried = run_campaign(
                circuit, plan, requests, shard_dir, workers=4, fault_spec=victims
            )
            assert retried.rounds >= 2
            assert np.array_equal(clean.batch.amps, retried.batch.amps)

        # separate resume: first invocation dies, second picks up the shards
        with tempfile.TemporaryDirectory() as shard_dir:
            with pytest.raises(CampaignError):
                run_campaign(
                    circuit,
                    plan,
                    requests,
                    shard_dir,
                    workers=4,
                    retry_limit=0,
                    fault_spec=victims,
                )
            partial = status(circuit, plan, requests, shard_dir)
            assert 0 < len(partial.done) < 32
            resumed = run_campaign(circuit, plan, requests, shard_dir, workers=4)
            assert np.array_equal(clean.batch.amps, resumed.batch.amps)

            # a duplicated prefix file must fail the merge, not double-count
            jobs_dir = sorted(os.listdir(shard_dir))
            src = os.path.join(shard_dir, jobs_dir[0])
            batch, header = read_amplitudes(src)
            write_amplitudes(src + ".copy.amp", batch, digits=17, header=header)
            with pytest.raises(MergeError, match="duplicate"):
                merge(circuit, plan, requests, shard_dir)


# -- 10. the verifier game separates claimants -------------------------------

def test_c10_verifier_separates_honest_and_cheating_claimants():
    """50 rounds each: honest passes, random and under-fidelity claimants fail."""
    circuit = generate(GenSpec(2, 7, 24, "v2", seed=3))
    cut = verifier_cut(circuit)
    k = 1 << 14
    delta = calibrate_delta(circuit, k, rounds=12, seed=40, cut=cut)
    state = run_full(circuit)
    honest = fetch_amplitudes(state, np.arange(k, dtype=np.int64))

    challenges = [
        issue_challenge(circuit, k, delta=delta, seed=1000 + i) for i in range(50)
    ]
    low_f = None
    tallies = {"honest": 0, "random": 0, "low_f": 0}
    for i, ch in enumerate(challenges):
        result = verifier_round(circuit, ch, honest, path_seed=7000 + i, cut=cut)
        tallies["honest"] += result.passed
        fake = claimant_round(circuit, ch, engine="random", seed=500 + i)
        result = verifier_round(circuit, ch, fake, path_seed=7000 + i, cut=cut)
        tallies["random"] += result.passed
        if low_f is None:
            low_f = claimant_round(circuit, ch, engine="hybrid", fidelity=0.01, seed=77)
        result = verifier_round(circuit, ch, low_f, path_seed=7000 + i, cut=cut)
        tallies["low_f"] += result.passed
    assert tallies["honest"] >= 49, f"honest passed only {tallies['honest']}/50"
    assert tallies["random"] == 0, f"random claimant passed {tallies['random']}/50"
    assert tallies["low_f"] <= 1, f"1% claimant passed {tallies['low_f']}/50"


# -- 11. amplitude collection is cheap ---------------------------------------

@pytest.mark.slow
def test_c11_collecting_many_amplitudes_is_nearly_free():
    """At 20 qubits, requesting 100000 amplitudes costs <= 1.25x of one."""
    circuit = generate(GenSpec(4, 5, 24, "v2", seed=9))
    cut = next(c for c in all_cuts(circuit) if c.orientation == "v" and c.position == 0)
    assert (cut.n_a, cut.n_b) == (4, 16)
    plan = make_plan(circuit, fidelity=1 / 16, x_b=0, seed=3, cut=cut)
    assert len(plan.retained) == 256
    one = np.array([123456], dtype=np.int64)
    many = np.sort(
        np.random.default_rng(5).choice(1 << 20, size=100000, replace=False)
    ).astype(np.int64)
    run_approx(circuit, plan, one)  # warm the lowering cache
    t0 = time.perf_counter()
    run_approx(circuit, plan, one)
    t_one = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_approx(circuit, plan, many)
    t_many = time.perf_counter() - t0
    assert t_many <= 1.25 * t_one, f"{t_many:.2f}s vs {t_one:.2f}s for one amplitude"


# -- 12. the cost model calibrates and forecasts -----------------------------

C12_CALIB = [
    (4, 4, 24, 16, 1.0, 0), (4, 4, 24, 4096, 1.0, 0), (4, 4, 28, 16, 0.25, 0),
    (3, 6, 28, 16, 1.0, 0), (3, 6, 32, 4096, 1.0, 0),
    (4, 5, 16, 16, 1.0, 0), (4, 5, 16, 65536, 1.0, 0),
    (3, 8, 20, 16, 1.0, 0), (3, 8, 24, 65536, 1.0, 0),
    (4, 4, 28, 16, 1.0, 4), (4, 6, 16, 16, 1.0, 0),
]
C12_HELD = [
    (4, 4, 26, 4096, 1.0, 0), (3, 6, 30, 16, 1.0, 0),
    (4, 5, 20, 16, 0.25, 0), (4, 5, 16, 32768, 1.0, 0),
    (3, 8, 28, 16, 0.5, 0), (4, 6, 20, 4096, 0.5, 0), (4, 6, 20, 16, 1.0, 2),
]


@pytest.mark.slow
def test_c12_cost_model_calibrates_and_forecasts():
    """Synthetic runs recover constants within 1%; real forecasts land within 20%."""
    truth = CostParams(2e-9, 1.1, 7e-9)
    rng = np.random.default_rng(8)
    rows = []
    for q1, q2, d_p, d_b, x_p, x_b, f, n_a in (
        (8, 8, 12, 0, 6, 0, 1.0, 16),
        (8, 8, 8, 4, 6, 2, 1.0, 16),
        (9, 9, 14, 0, 4, 0, 1.0, 4096),
        (10, 10, 10, 6, 8, 3, 0.25, 16),
        (8, 8, 16, 2, 5, 1, 0.5, 1024),
        (12, 12, 12, 0, 2, 0, 1.0, 65536),
    ):
        t = total_seconds(truth, f, q1, q2, d_p, d_b, x_p, x_b, n_a)
        t *= 1.0 + 0.002 * rng.standard_normal()
        rows.append(BenchResult(q1, q2, d_p, d_b, x_p, x_b, f, n_a, t))
    report = calibrate(rows)
    assert report.params.C1 == pytest.approx(truth.C1, rel=0.01)
    assert report.params.C2 == pytest.approx(truth.C2, rel=0.01)
    assert report.params.C3 == pytest.approx(truth.C3, rel=0.01)

    # self-calibration on measured runs, scored on held-out configurations
    idx_rng = np.random.default_rng(17)

    def measure(rows_, cols_, depth, n_a, f, x_b):
        circuit = generate(GenSpec(rows_, cols_, depth, "v2", seed=1))
        plan = make_plan(circuit, fidelity=f, x_b=x_b, seed=2)
        idx = np.sort(
            idx_rng.choice(1 << circuit.n_qubits, size=n_a, replace=False)
        ).astype(np.int64)
        run_approx(circuit, plan, idx[: min(4, n_a)])  # warm caches
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            run_approx(circuit, plan, idx)
            best = min(best, time.perf_counter() - t0)
        return BenchResult.from_plan(plan, n_a, best)

    fit = calibrate([measure(*cell) for cell in C12_CALIB])
    params = fit.params
    assert fit.rel_residual < 0.15, f"calibration rms residual {fit.rel_residual:.3f}"
    for cell in C12_HELD:
        got = measure(*cell)
        pred = total_seconds(
            params, got.f, got.q1, got.q2, got.d_p, got.d_b, got.x_p, got.x_b, got.n_a
        )
        dev = abs(pred - got.seconds) / got.seconds
        assert dev <= 0.20, f"{cell}: forecast off by {100 * dev:.1f}%"
