import numpy as np
import pytest

from conftest import assert_states_close
from gridsim.benchgen import GenSpec, generate
from gridsim.circuit import (
    CircuitError,
    Gate,
    GateKind,
    all_cuts,
    choose_cut,
    gate_matrix,
    parse_circuit,
)
from gridsim import pathsum
from gridsim.pathsum import (
    estimate_fidelity,
    make_plan,
    path_digits,
    path_id,
    retained_prefixes,
    run_approx,
    run_batched,
    schmidt_decompose,
    split_requests,
)
from gridsim.statevec import AmplitudeBatch, fetch_amplitudes, run_full


def reconstruct(terms):
    total = np.zeros((4, 4), dtype=np.complex128)
    for left, right in terms:
        total += np.kron(left, right)
    return total


class TestSchmidt:
    def test_cz_is_projector_pair(self):
        dec = schmidt_decompose(GateKind.CZ)
        assert dec.rank == 2
        p0, i2 = dec.terms[0]
        p1, z = dec.terms[1]
        np.testing.assert_allclose(p0, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(i2, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(p1, np.diag([0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(z, np.diag([1.0, -1.0]), atol=1e-12)

    def test_iswap_rank_four(self):
        dec = schmidt_decompose(GateKind.ISWAP)
        assert dec.rank == 4
        np.testing.assert_allclose(
            reconstruct(dec.terms), gate_matrix(Gate(0, GateKind.ISWAP, (0, 1))), atol=1e-12
        )

    def test_identity_matrix_rank_one(self):
        assert schmidt_decompose(np.eye(4)).rank == 1

    def test_swap_matrix_rank_four(self):
        swap = np.eye(4)[[0, 2, 1, 3]]
        dec = schmidt_decompose(swap)
        assert dec.rank == 4
        np.testing.assert_allclose(reconstruct(dec.terms), swap, atol=1e-12)

    def test_every_fixed_kind_reconstructs(self):
        for kind in (GateKind.CZ, GateKind.ISWAP):
            gate = Gate(0, kind, (0, 1))
            np.testing.assert_allclose(
                reconstruct(schmidt_decompose(gate).terms), gate_matrix(gate), atol=1e-12
            )

    def test_random_unitary_reconstructs(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(m)
        dec = schmidt_decompose(u)
        assert dec.rank <= 4
        np.testing.assert_allclose(reconstruct(dec.terms), u, atol=1e-10)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            schmidt_decompose(np.eye(2))


class TestRetainedPrefixes:
    def test_count_formula_exact(self):
        for space in (8, 32, 1024, 4096):
            for f in (1.0, 0.5, 0.25, 0.125, 0.01, 1e-6):
                got = retained_prefixes(space, f, seed=7)
                assert len(got) == max(1, round(f * space))

    def test_documented_rounding_case(self):
        assert len(retained_prefixes(1024, 0.0051, seed=0)) == 5

    def test_distinct_and_sorted(self):
        got = retained_prefixes(4096, 0.3, seed=11)
        assert np.all(np.diff(got) > 0)

    def test_full_fraction_is_identity(self):
        np.testing.assert_array_equal(retained_prefixes(64, 1.0, 0), np.arange(64))

    def test_overfull_fraction_rejected(self):
        with pytest.raises(CircuitError):
            retained_prefixes(4, 1.3, 0)

    def test_seed_determinism(self):
        a = retained_prefixes(512, 0.2, seed=3)
        b = retained_prefixes(512, 0.2, seed=3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, retained_prefixes(512, 0.2, seed=4))


class TestPlan:
    def test_cz_circuit_has_binary_radices(self, circuit_4x4_d16):
        plan = make_plan(circuit_4x4_d16, x_b=0)
        assert set(plan.radices) == {2}
        assert plan.path_space == 1 << plan.x
        assert plan.x_p + plan.x_b == plan.x

    def test_iswap_circuit_has_quaternary_radices(self):
        circ = generate(GenSpec(2, 3, 8, "v2", seed=0, two_qubit=GateKind.ISWAP))
        plan = make_plan(circ, x_b=0)
        assert set(plan.radices) == {4}
        assert plan.path_space == 4**plan.x

    def test_split_must_cover_cross_gates(self, circuit_4x4_d16):
        with pytest.raises(CircuitError):
            make_plan(circuit_4x4_d16, x_p=1, x_b=1)

    def test_cut_override(self, circuit_4x4_d16):
        cut = all_cuts(circuit_4x4_d16)[0]
        plan = make_plan(circuit_4x4_d16, cut=cut, x_b=0)
        assert plan.cut == cut

    def test_fidelity_bounds(self, circuit_4x4_d16):
        with pytest.raises(CircuitError):
            make_plan(circuit_4x4_d16, fidelity=0.0)
        with pytest.raises(CircuitError):
            make_plan(circuit_4x4_d16, fidelity=1.5)

    def test_path_id_digit_round_trip(self):
        radices = (2, 4, 2, 4)
        for pid in range(2 * 4 * 2 * 4):
            assert path_id(path_digits(pid, radices), radices) == pid


class TestSplitRequests:
    def test_row_cut_bit_split(self):
        # 2x2 grid, qubit q holds basis bit (3 - q); block_a = top row
        idx = np.arange(16, dtype=np.int64)
        idx_a, idx_b = split_requests(4, (0, 1), (2, 3), idx)
        np.testing.assert_array_equal(idx_a, idx >> 2)
        np.testing.assert_array_equal(idx_b, idx & 3)

    def test_column_cut_interleaved_bits(self):
        idx = np.arange(16, dtype=np.int64)
        idx_a, idx_b = split_requests(4, (0, 2), (1, 3), idx)
        np.testing.assert_array_equal(idx_a, ((idx >> 3) & 1) << 1 | ((idx >> 1) & 1))
        np.testing.assert_array_equal(idx_b, ((idx >> 2) & 1) << 1 | (idx & 1))


class TestTwoQubitPaths:
    def setup_method(self):
        self.circ = parse_circuit("2\n0 h 0\n0 h 1\n1 cz 0 1\n", rows=1, cols=2)
        self.plan = make_plan(self.circ, x_p=1, x_b=0)
        self.idx = np.arange(4, dtype=np.int64)

    def test_each_path_is_a_projected_branch(self):
        b0 = run_batched(self.circ, self.plan, self.idx, prefixes=[0])
        b1 = run_batched(self.circ, self.plan, self.idx, prefixes=[1])
        assert_states_close(b0.amps, [0.5, 0.5, 0.0, 0.0], 1e-7)
        assert_states_close(b1.amps, [0.0, 0.0, 0.5, -0.5], 1e-7)

    def test_paths_sum_to_full_state(self):
        total = run_approx(self.circ, self.plan, self.idx)
        assert_states_close(total.amps, [0.5, 0.5, 0.5, -0.5], 1e-7)


class TestPathSums:
    def test_full_fidelity_matches_statevec(self):
        for rows, cols, d, ver in ((3, 4, 14, "v2"), (3, 4, 14, "v1"), (4, 4, 12, "v2")):
            circ = generate(GenSpec(rows, cols, d, ver, seed=6))
            idx = np.arange(1 << circ.n_qubits, dtype=np.int64)
            plan = make_plan(circ, fidelity=1.0)
            approx = run_approx(circ, plan, idx)
            exact = fetch_amplitudes(run_full(circ), idx)
            assert_states_close(approx.amps, exact.amps, 1e-6)

    def test_split_choice_does_not_change_amplitudes(self, circuit_4x4_d16):
        idx = np.random.default_rng(0).integers(0, 1 << 16, size=256).astype(np.int64)
        idx = np.unique(idx)
        plan_flat = make_plan(circuit_4x4_d16, x_b=0)
        reference = run_approx(circuit_4x4_d16, plan_flat, idx)
        for x_p in (0, 2, 5):
            plan = make_plan(circuit_4x4_d16, x_p=x_p)
            got = run_approx(circuit_4x4_d16, plan, idx)
            assert_states_close(got.amps, reference.amps, 1e-6)

    def test_prefix_order_does_not_matter(self, circuit_3x3_d12):
        plan = make_plan(circuit_3x3_d12, x_b=0)
        idx = np.arange(512, dtype=np.int64)
        forward = AmplitudeBatch.zeros(idx)
        backward = AmplitudeBatch.zeros(idx)
        for pfx in plan.retained:
            forward.amps += run_batched(circuit_3x3_d12, plan, idx, prefixes=[pfx]).amps
        for pfx in plan.retained[::-1]:
            backward.amps += run_batched(circuit_3x3_d12, plan, idx, prefixes=[pfx]).amps
        np.testing.assert_allclose(forward.amps, backward.amps, rtol=1e-10, atol=1e-14)

    def test_row_chunks_do_not_change_amplitudes(self, monkeypatch, circuit_4x4_d16):
        plan = make_plan(circuit_4x4_d16, fidelity=0.5, x_b=2, seed=3)
        idx = np.unique(np.random.default_rng(1).integers(0, 1 << 16, size=256))
        whole = run_batched(circuit_4x4_d16, plan, idx)
        rows = 7  # an uneven last chunk
        row_bytes = 8 * ((1 << plan.cut.n_a) + (1 << plan.cut.n_b))
        monkeypatch.setattr(pathsum, "_ROW_BYTES_CAP", rows * row_bytes)
        assert plan.x_b > 0 and -(-len(plan.retained) // rows) >= 3
        chunked = run_batched(circuit_4x4_d16, plan, idx)
        np.testing.assert_allclose(chunked.amps, whole.amps, atol=1e-6)

    def test_shallow_paths_carry_near_equal_norms(self):
        # a depth-8 window keeps every cut gate's two projector branches
        # balanced; the spread grows with depth, so pin the shallow case
        for rows, cols in ((4, 5), (3, 4)):
            circ = generate(GenSpec(rows, cols, 8, "v2", seed=0))
            plan = make_plan(circ, x_b=0)
            idx = np.arange(1 << circ.n_qubits, dtype=np.int64)
            norms = [
                float(np.vdot(b.amps, b.amps).real)
                for b in (
                    run_batched(circ, plan, idx, prefixes=[p]) for p in plan.retained
                )
            ]
            norms = np.array(norms)
            assert norms.std() / norms.mean() < 0.10


class TestEstimateFidelity:
    def _batch(self, amps):
        idx = np.arange(len(amps), dtype=np.int64)
        batch = AmplitudeBatch.zeros(idx)
        batch.amps[:] = amps
        return batch

    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(2)
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        assert estimate_fidelity(self._batch(amps), self._batch(amps)) == pytest.approx(1.0)

    def test_scale_invariant(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        f = estimate_fidelity(self._batch(amps), self._batch(0.03 * amps))
        assert f == pytest.approx(1.0)

    def test_orthogonal_batches_give_zero(self):
        a = np.zeros(8, dtype=complex)
        b = np.zeros(8, dtype=complex)
        a[0] = 1.0
        b[1] = 1.0
        assert estimate_fidelity(self._batch(a), self._batch(b)) == pytest.approx(0.0)

    def test_mismatched_indices_rejected(self):
        a = self._batch(np.ones(8, dtype=complex))
        b = AmplitudeBatch.zeros(np.arange(1, 9, dtype=np.int64))
        b.amps[:] = 1.0
        with pytest.raises(ValueError):
            estimate_fidelity(a, b)

    def test_empty_batch_rejected(self):
        empty = AmplitudeBatch.zeros(np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            estimate_fidelity(empty, empty)

    def test_zero_norm_rejected(self):
        zero = self._batch(np.zeros(4, dtype=complex))
        with pytest.raises(ValueError):
            estimate_fidelity(zero, zero)
