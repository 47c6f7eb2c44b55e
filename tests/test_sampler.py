import math
import tracemalloc

import numpy as np
import pytest

from gridsim.benchgen import GenSpec, generate
from gridsim.sampler import (
    BOOTSTRAP_RESAMPLES,
    SampleRequest,
    SamplingError,
    committed_indices,
    frugal_tv_bound,
    plan_basic,
    porter_thomas_fit,
    sample,
    sample_basic,
    sample_frugal,
    tail_mass,
)
from gridsim.statevec import run_full


class TestPlanBasic:
    def test_49_qubit_budget(self):
        assert plan_basic(49, 1e-3) == 41

    def test_20_qubit_budget(self):
        assert plan_basic(20, 1e-3) == 21

    def test_degenerate_case_clamps_to_one(self):
        assert plan_basic(0, 1.0) == 1

    def test_formula(self):
        for n, eps in ((10, 1e-2), (30, 1e-4), (52, 1e-3)):
            assert plan_basic(n, eps) == max(1, math.ceil(n * math.log(2) + math.log(1 / eps)))

    def test_rejects_bad_inputs(self):
        with pytest.raises(SamplingError):
            plan_basic(-1, 1e-3)
        with pytest.raises(SamplingError):
            plan_basic(10, 0.0)
        with pytest.raises(SamplingError):
            plan_basic(10, 1.0001)


class TestCommittedIndices:
    def test_deterministic(self):
        req = SampleRequest(10, count=50)
        np.testing.assert_array_equal(committed_indices(req), committed_indices(req))

    def test_in_range(self):
        req = SampleRequest(8, count=100)
        idx = committed_indices(req)
        assert idx.size == req.batch_size
        assert idx.min() >= 0 and idx.max() < 256

    def test_offset_continues_the_stream(self):
        req = SampleRequest(12, count=300)
        full = committed_indices(req)
        shifted = committed_indices(req, offset=100)
        np.testing.assert_array_equal(shifted[: full.size - 100], full[100:])

    @pytest.mark.parametrize("n", [33, 49, 56])
    @pytest.mark.parametrize("offset", [1, 2, 3, 4, 5, 7, 100, 333])
    def test_offset_continues_the_64_bit_stream(self, n, offset):
        # past 32 qubits each draw takes one 64-bit word, four to a Philox block
        req = SampleRequest(n, count=40)
        full = committed_indices(req)
        shifted = committed_indices(req, offset=offset)
        np.testing.assert_array_equal(shifted[: full.size - offset], full[offset:])
        assert full.max() >= 1 << 32

    def test_negative_offset_rejected(self):
        with pytest.raises(SamplingError):
            committed_indices(SampleRequest(4, count=1), offset=-1)


class TestBasicSampling:
    def test_uniform_state_accepts_one_in_m(self):
        req = SampleRequest(10, count=5000, mode="basic", epsilon=1e-3, seed=7)
        m = plan_basic(10, 1e-3)
        idx = committed_indices(req)
        probs = np.full(idx.size, 1.0 / 1024)
        got = sample_basic(req, idx, probs)
        # each entry accepts with probability exactly 1/M
        expect = idx.size / m
        sigma = math.sqrt(idx.size * (1 / m) * (1 - 1 / m))
        assert abs(got.accepted_count - expect) < 5 * sigma
        assert got.measured_tail_mass == 0.0

    def test_all_zero_probabilities_accept_nothing(self):
        req = SampleRequest(8, count=40, mode="basic", seed=1)
        idx = committed_indices(req)
        got = sample_basic(req, idx, np.zeros(idx.size))
        assert got.accepted_count == 0
        assert got.indices.size == 0

    def test_entries_above_cap_are_dropped_into_tail(self):
        req = SampleRequest(8, count=10, mode="basic", epsilon=1e-3, seed=1)
        m = plan_basic(8, 1e-3)
        idx = committed_indices(req)
        probs = np.full(idx.size, 1.0 / 256)
        probs[0] = 2.0 * m / 256  # double the acceptance cap
        got = sample_basic(req, idx, probs)
        assert got.measured_tail_mass == pytest.approx(256 * probs[0] / idx.size)

    def test_probability_at_cap_is_kept(self):
        req = SampleRequest(8, count=10, mode="basic", epsilon=1e-3, seed=1)
        m = plan_basic(8, 1e-3)
        idx = committed_indices(req)
        probs = np.full(idx.size, m / 256.0)
        got = sample_basic(req, idx, probs)
        assert got.accepted_count == idx.size
        assert got.measured_tail_mass == 0.0

    def test_determinism(self):
        req = SampleRequest(10, count=100, mode="basic", seed=3)
        idx = committed_indices(req)
        probs = np.random.default_rng(0).random(idx.size) / 1024
        a = sample_basic(req, idx, probs)
        b = sample_basic(req, idx, probs)
        np.testing.assert_array_equal(a.indices, b.indices)


class TestFrugalSampling:
    def test_capped_probability_accepts_everything(self):
        req = SampleRequest(8, count=100, mode="frugal", m_star=10, seed=2)
        idx = committed_indices(req)
        probs = np.full(idx.size, 10.0 / 256)
        got = sample_frugal(req, idx, probs)
        assert got.accepted_count == idx.size

    def test_expected_yield_on_chaotic_probabilities(self):
        req = SampleRequest(16, count=1000, m_star=10, seed=4)
        idx = committed_indices(req)
        probs = np.random.default_rng(11).exponential(1.0 / (1 << 16), size=idx.size)
        got = sample_frugal(req, idx, probs)
        assert abs(got.accepted_count - 1000) < 300

    def test_superset_of_basic_acceptances(self):
        # both modes share one acceptance stream, so with M' < M every
        # basic accept must also be a frugal accept
        req_b = SampleRequest(12, count=200, mode="basic", epsilon=1e-3, seed=9)
        m = plan_basic(12, 1e-3)
        idx = committed_indices(req_b)
        probs = np.random.default_rng(1).exponential(1.0 / 4096, size=idx.size)
        basic = sample_basic(req_b, idx, probs)
        req_f = SampleRequest(12, count=200 * m // 10, mode="frugal", m_star=10, seed=9)
        frugal = sample_frugal(req_f, idx[: req_f.batch_size], probs[: req_f.batch_size])
        assert basic.accepted_count <= frugal.accepted_count
        assert set(basic.indices.tolist()) <= set(frugal.indices.tolist()) | set(
            idx[req_f.batch_size :].tolist()
        )

    @pytest.mark.parametrize("mode", ["basic", "frugal"])
    def test_accept_mask_equals_the_capped_rule(self, mode):
        # accept iff u < min{1, p*N/M}, u the lane-1 Philox stream; a tenth
        # of the entries sit above M/N, where the cap of 1 binds
        req = SampleRequest(12, count=300, mode=mode, epsilon=1e-3, m_star=10, seed=13)
        m = plan_basic(12, 1e-3) if mode == "basic" else req.m_star
        idx = np.arange(req.batch_size, dtype=np.int64)
        gen = np.random.default_rng(2)
        probs = gen.exponential(1.0 / 4096, size=idx.size)
        probs[gen.random(idx.size) < 0.1] *= 4.0 * m
        assert np.count_nonzero(probs > m / 4096) > idx.size // 20
        u = np.random.Generator(np.random.Philox(key=[13, 1])).random(idx.size)
        want = u < np.minimum(1.0, probs * 4096 / m)
        if mode == "basic":
            want &= probs <= m / 4096
        got = sample(req, idx, probs)
        np.testing.assert_array_equal(got.indices, idx[want])
        assert got.accepted_count == np.count_nonzero(want)

    def test_dispatch_by_mode(self):
        req = SampleRequest(8, count=20, mode="frugal", seed=5)
        idx = committed_indices(req)
        probs = np.full(idx.size, 1.0 / 256)
        a = sample(req, idx, probs)
        b = sample_frugal(req, idx, probs)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_bitstring_formatting(self):
        req = SampleRequest(4, count=10, m_star=1, seed=0)
        idx = committed_indices(req)
        got = sample_frugal(req, idx, np.full(idx.size, 1.0))
        assert all(len(s) == 4 and set(s) <= {"0", "1"} for s in got.bitstrings)


class TestBatchValidation:
    def test_wrong_multiple_rejected(self):
        req = SampleRequest(8, count=10, m_star=10)
        with pytest.raises(SamplingError):
            sample_frugal(req, np.arange(99), np.zeros(99))

    def test_negative_probability_rejected(self):
        req = SampleRequest(8, count=1, m_star=4)
        with pytest.raises(SamplingError):
            sample_frugal(req, np.arange(4), np.array([0.1, -0.1, 0.0, 0.0]))

    def test_mismatched_shapes_rejected(self):
        req = SampleRequest(8, count=1, m_star=4)
        with pytest.raises(SamplingError):
            sample_frugal(req, np.arange(4), np.zeros(5))

    def test_request_validation(self):
        with pytest.raises(SamplingError):
            SampleRequest(0, count=1)
        with pytest.raises(SamplingError):
            SampleRequest(4, count=0)
        with pytest.raises(SamplingError):
            SampleRequest(4, count=1, mode="other")
        with pytest.raises(SamplingError):
            SampleRequest(4, count=1, m_star=0)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0])
    def test_epsilon_outside_the_open_unit_interval_rejected(self, epsilon):
        with pytest.raises(SamplingError, match="epsilon must be in"):
            SampleRequest(4, count=1, epsilon=epsilon)


class TestTailMass:
    def test_uniform_state_has_no_tail(self):
        probs = np.full(4096, 1.0 / 4096)
        est = tail_mass(probs, 12, m_star=10)
        assert est.estimate == 0.0

    def test_exact_value_on_crafted_batch(self):
        n_qubits = 8
        probs = np.full(64, 1.0 / 256)
        probs[0] = 20.0 / 256  # above the 10/256 threshold
        est = tail_mass(probs, n_qubits, m_star=10)
        assert est.estimate == pytest.approx(256 / 64 * probs[0])
        assert est.threshold == pytest.approx(10.0 / 256)

    def test_bootstrap_deterministic(self):
        probs = np.random.default_rng(3).exponential(1.0 / 1024, size=2048)
        a = tail_mass(probs, 10, seed=5)
        b = tail_mass(probs, 10, seed=5)
        assert a.estimate == b.estimate and a.sigma == b.sigma

    def test_rejects_empty(self):
        with pytest.raises(SamplingError):
            tail_mass(np.array([]), 4)

    def test_bound_value(self):
        assert frugal_tv_bound(10) == pytest.approx(9.08e-5, rel=1e-2)


class TestPorterThomasFit:
    def test_synthetic_chaotic_sample_passes(self):
        probs = np.random.default_rng(0).exponential(1.0 / (1 << 20), size=100000)
        fit = porter_thomas_fit(probs)
        assert fit.ks_statistic < 0.01

    def test_uniform_state_fails_badly(self):
        probs = np.full(20000, 1.0 / 20000)
        fit = porter_thomas_fit(probs)
        # degenerate point mass against Exp(1): KS -> 1 - 1/e
        assert fit.ks_statistic > 0.5

    def test_rejects_small_batches(self):
        with pytest.raises(SamplingError):
            porter_thomas_fit(np.full(100, 1e-3))

    def test_rejects_a_batch_without_probability_mass(self):
        with pytest.raises(SamplingError, match="^batch has no probability mass$"):
            porter_thomas_fit(np.zeros(10000))

    def test_closed_form_matches_scipy_kstest(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(11)
        batches = [rng.exponential(1.0, size=size) for size in (10000, 33333, 100000)]
        batches.append(rng.random(20000))
        state = run_full(generate(GenSpec(4, 4, 20, "v2", seed=0))).amps
        batches.append(np.abs(state.astype(np.complex128)) ** 2)
        for p in batches:
            ref = stats.kstest(p / p.mean(), "expon").statistic
            assert abs(porter_thomas_fit(p).ks_statistic - ref) <= 1e-15


def _one_shot_tail_sigma(probs, n_qubits, m_star, seed):
    # the bootstrap as a single (resamples, batch) draw: the reference
    n_states = float(1 << n_qubits)
    contrib = np.where(probs > m_star / n_states, probs, 0.0)
    gen = np.random.Generator(np.random.Philox(key=[seed, 2]))
    picks = gen.integers(0, probs.size, size=(BOOTSTRAP_RESAMPLES, probs.size))
    return float((contrib[picks].sum(axis=1) * (n_states / probs.size)).std())


class TestTailMassBootstrap:
    @pytest.mark.parametrize("block", [None, 3 * 4097])
    def test_row_blocks_repeat_the_one_shot_draw(self, block, monkeypatch):
        # 3 rows of 4097 leave an odd count of draws per block
        if block is not None:
            monkeypatch.setattr("gridsim.sampler._BOOTSTRAP_BLOCK", block)
        rng = np.random.default_rng(12)
        for size in (4096, 4097, 30001):
            probs = rng.exponential(size=size) / (1 << 12)
            got = tail_mass(probs, 12, m_star=2, seed=5)
            assert got.sigma > 0
            assert got.sigma == _one_shot_tail_sigma(probs, 12, 2, 5)

    def test_memory_follows_the_batch(self):
        probs = np.random.default_rng(13).exponential(size=1 << 18) / (1 << 18)
        tracemalloc.start()
        try:
            tail_mass(probs, 18, m_star=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
