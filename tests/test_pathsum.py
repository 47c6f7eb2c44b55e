import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import assert_states_close
from oracles import naive_state
from gridsim.benchgen import GenSpec, generate
from gridsim.circuit import (
    CircuitError,
    Gate,
    GateKind,
    all_cuts,
    choose_cut,
    cross_gates,
    gate_matrix,
    parse_circuit,
)
from gridsim import pathsum, statevec
from gridsim.pathsum import (
    estimate_fidelity,
    make_plan,
    retained_prefixes,
    run_approx,
    run_batched,
    schmidt_decompose,
    split_requests,
)
from gridsim.statevec import AmplitudeBatch, fetch_amplitudes, run_full
from gridsim.validate import challenge_indices


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


def _as_matrix(kind, operator):
    # a one-qubit op's operator as 2x2 matrices: diag1 holds the diagonals
    if kind == "diag1":
        return operator[..., :, None] * np.eye(2, dtype=operator.dtype)
    return operator


def _random_g2(seed):
    z = np.random.default_rng(seed).normal(size=(2, 4, 4))
    return np.linalg.qr(z[0] + 1j * z[1])[0]


def _descending_g2_circuit():
    # g2, is and cz cross the h cut of a 2x3 grid in both qubit orders
    entries = " ".join(f"{v.real:.17g} {v.imag:.17g}" for v in _random_g2(7).ravel())
    text = (
        "6\n"
        + "".join(f"0 h {q}\n" for q in range(6))
        + f"1 is 4 1\n1 g2 2 5 {entries}\n1 t 0\n2 cz 1 0\n2 x_1_2 4\n"
        + f"3 g2 3 0 {entries}\n3 is 2 5\n3 y_1_2 1\n4 is 1 4\n5 cz 4 3\n"
    )
    circ = parse_circuit(text, rows=2, cols=3)
    return circ, next(c for c in all_cuts(circ) if c.block_a == (0, 1, 2))


class TestCrossLowering:
    def test_stack_lowering_equals_the_one_matrix_lowering_per_digit(self):
        # CZ's terms are diagonal, iSWAP's raise and lower terms are not,
        # and a random g2's SVD terms are dense
        for gate, kinds in (
            (GateKind.CZ, ["diag1", "diag1"]),
            (GateKind.ISWAP, ["mat1", "mat1"]),
            (_random_g2(3), ["mat1", "mat1"]),
        ):
            seen = []
            for mats in zip(*schmidt_decompose(gate).terms):
                kind, blk, q, stack = statevec.one_qubit_op(np.stack(mats), 1, 3)
                singles = [statevec.one_qubit_op(m, 1, 3) for m in mats]
                assert (blk, q, len(stack)) == (1, 3, len(mats))
                assert (kind == "diag1") == all(op[0] == "diag1" for op in singles)
                for k, op in enumerate(singles):
                    assert op[1:3] == (1, 3)
                    np.testing.assert_array_equal(
                        _as_matrix(kind, stack)[k], _as_matrix(op[0], op[3])
                    )
                seen.append(kind)
            assert seen == kinds

    def test_each_cross_op_holds_the_lowering_of_its_gates_terms(self, circuit_4x4_d16):
        iswap = generate(GenSpec(3, 4, 16, "v2", seed=0, two_qubit=GateKind.ISWAP))
        cells = [(c, choose_cut(c)) for c in (circuit_4x4_d16, iswap)]
        for circ, cut in cells + [_descending_g2_circuit()]:
            ops = pathsum._lower(circ, cut)
            got = [op for op in ops if op[0] == "cross"]
            gates = cross_gates(circ, cut)
            assert len(ops) == len(circ.gates) and len(got) == len(gates) > 0
            for k, (op, gate) in enumerate(zip(got, gates)):
                assert op[1] == k
                sides = list(zip(gate.qubits, zip(*schmidt_decompose(gate).terms)))
                if gate.qubits[0] not in cut.block_a:
                    sides.reverse()
                for blk, (block, (q, mats), side_op) in enumerate(
                    zip((cut.block_a, cut.block_b), sides, op[2:])
                ):
                    want = statevec.one_qubit_op(np.stack(mats), blk, block.index(q))
                    assert side_op[:3] == want[:3]
                    np.testing.assert_array_equal(side_op[3], want[3])


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


def _set_subset(space, m, seed):
    # the selector deduplicating through a Python set: the reference.
    # Returns the ids and how many shortfall redraws it took.
    rng = np.random.default_rng(seed)
    if m == space:
        return np.arange(space, dtype=np.int64), 0
    if m > space // 4:
        return np.sort(rng.choice(space, size=m, replace=False).astype(np.int64)), 0
    seen, draws = set(), 0
    while len(seen) < m:
        draw = rng.integers(0, space, size=m - len(seen))
        seen.update(int(v) for v in draw)
        draws += 1
    return np.array(sorted(seen), dtype=np.int64), draws - 1


def _redraw_collisions(space, m, seed):
    # replays the uniform branch's draws: how many ids of the second and
    # later draws were kept already, and how many repeat within their draw
    rng = np.random.default_rng(seed)
    seen, on_kept, within = set(), 0, 0
    while len(seen) < m:
        draw = [int(v) for v in rng.integers(0, space, size=m - len(seen))]
        if seen:
            on_kept += sum(v in seen for v in draw)
            within += len(draw) - len(set(draw))
        seen.update(draw)
    return on_kept, within


class TestSeededSubset:
    # (space, fidelity, seed) at 1/4 of the space, the last uniform-draw
    # fraction: each redraws its shortfall two to four times, so redrawn ids
    # land on kept ids and on each other
    REDRAW_CASES = [(4096, 0.25, 7), *[(1024, 0.25, s) for s in range(6)]]
    # (space, fidelity, seed) covering all three branches
    PREFIX_CASES = [(64, 1.0, 0), (4096, 0.3, 11), (1 << 20, 0.01, 3), (8, 0.01, 2), *REDRAW_CASES]
    # (n_qubits, k, seed)
    CHALLENGE_CASES = [(6, 64, 3), (12, 1500, 5), (12, 1024, 1), (20, 100000, 7)]

    def test_cases_reach_every_branch(self):
        for space, f, seed in self.REDRAW_CASES:
            assert _set_subset(space, round(f * space), seed)[1] >= 2
        hits = [_redraw_collisions(sp, round(f * sp), s) for sp, f, s in self.REDRAW_CASES]
        assert sum(on_kept for on_kept, _ in hits) > 0 and sum(within for _, within in hits) > 0
        kept = [(round(fr * sp), sp) for sp, fr, _ in self.PREFIX_CASES]
        assert any(m == sp for m, sp in kept)
        assert any(sp // 4 < m < sp for m, sp in kept)

    def test_retained_prefixes_match_the_set_reference(self):
        for space, f, seed in self.PREFIX_CASES:
            want, _ = _set_subset(space, max(1, round(f * space)), seed)
            np.testing.assert_array_equal(retained_prefixes(space, f, seed), want)

    def test_challenge_indices_match_the_set_reference(self):
        for n, k, seed in self.CHALLENGE_CASES:
            want, _ = _set_subset(1 << n, k, seed)
            np.testing.assert_array_equal(challenge_indices(n, k, seed), want)

    def test_memory_stays_near_the_kept_ids(self):
        # 1,342,177 of 2^28: the ids are 10.7 MB; a set of ints took 145 MB
        tracemalloc.start()
        try:
            got = retained_prefixes(1 << 28, 0.005, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.size == 1342177
        assert peak < 64 * 2**20

    def test_peak_stays_near_the_returned_ids(self):
        # one full-size draw and its deduplicated copy, then the kept ids
        # and their insertion copy: about twice the output, never three times
        tracemalloc.start()
        try:
            got = retained_prefixes(1 << 28, 0.005, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * got.nbytes


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

    def test_prefix_space_past_int64_is_a_named_error(self):
        circ = generate(GenSpec(7, 7, 40, "v2", seed=0, two_qubit=GateKind.ISWAP))
        with pytest.raises(CircuitError, match=r"prefix space 7378\d+ exceeds the int64 id limit"):
            make_plan(circ, fidelity=0.005)

    def test_digit_columns_are_big_endian(self):
        for radices in ((2,), (2, 4, 2, 4), (4, 2, 3)):
            ids = np.arange(math.prod(radices))
            cols = pathsum._digit_columns(ids, radices)
            for k, want in enumerate(np.unravel_index(ids, radices)):
                np.testing.assert_array_equal(cols[k], want)
        for bad in (-1, 64):
            with pytest.raises(ValueError):
                pathsum._digit_columns(np.array([bad]), (2, 4, 2, 4))


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

    def test_names_the_first_index_outside(self):
        for bad, word in (([15, 16, -1], "10"), ([-2, 16], "-2")):
            with pytest.raises(IndexError, match=f"^index {word} is outside the 4-qubit state$"):
                split_requests(4, (0, 1), (2, 3), np.array(bad, dtype=np.int64))


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
    def test_descending_cross_gates_match_naive(self):
        # g2 and is cross the h cut in both qubit orders
        z = np.random.default_rng(7).normal(size=(2, 4, 4))
        u, _ = np.linalg.qr(z[0] + 1j * z[1])
        entries = " ".join(f"{v.real:.17g} {v.imag:.17g}" for v in u.ravel())
        text = (
            "6\n"
            + "".join(f"0 h {q}\n" for q in range(6))
            + f"1 is 4 1\n1 g2 2 5 {entries}\n1 t 0\n2 cz 1 0\n2 x_1_2 4\n"
            + f"3 g2 3 0 {entries}\n3 is 2 5\n3 y_1_2 1\n4 is 1 4\n5 cz 4 3\n"
        )
        circ = parse_circuit(text, rows=2, cols=3)
        cut = next(c for c in all_cuts(circ) if c.block_a == (0, 1, 2))
        idx = np.arange(1 << circ.n_qubits, dtype=np.int64)
        for x_b in (0, 2):
            plan = make_plan(circ, x_b=x_b, cut=cut)
            assert plan.x == 5
            got = run_approx(circ, plan, idx)
            assert_states_close(got.amps, naive_state(circ), 1e-5)

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
        monkeypatch.setattr(statevec, "_SLICE_BYTES", rows * row_bytes)
        assert plan.x_b > 0 and -(-len(plan.retained) // rows) >= 3
        chunked = run_batched(circuit_4x4_d16, plan, idx)
        np.testing.assert_allclose(chunked.amps, whole.amps, atol=1e-6)

    def test_joint_landing_does_not_depend_on_row_tiles(self, monkeypatch, circuit_4x4_d16):
        # every amplitude is requested, so the two blocks are contracted
        # into the joint matrix; its row sums are accumulated in complex128
        plan = make_plan(circuit_4x4_d16, fidelity=0.5, x_b=0, seed=3)
        idx = np.arange(1 << 16)
        whole = run_batched(circuit_4x4_d16, plan, idx).amps
        rows = 7
        row_bytes = 8 * ((1 << plan.cut.n_a) + (1 << plan.cut.n_b))
        monkeypatch.setattr(statevec, "_SLICE_BYTES", rows * row_bytes)
        assert -(-len(plan.retained) // rows) >= 3
        tiled = run_batched(circuit_4x4_d16, plan, idx).amps
        assert np.abs(tiled - whole).max() <= 1e-14 * np.abs(whole).max()

    def test_row_tiles_keep_the_working_set_small(self):
        # 512 rows of two 10-qubit blocks are 8 MiB as one array; tiles of
        # the 1 MB slice budget, each copied once per branch, stay far below
        circ = generate(GenSpec(4, 5, 20, "v2", seed=0))
        plan = make_plan(circ, fidelity=1 / 16, x_b=0, seed=0)
        assert len(plan.retained) == 512 and (plan.cut.n_a, plan.cut.n_b) == (10, 10)
        idx = np.unique(np.random.default_rng(2).integers(0, 1 << 20, size=1024))
        run_batched(circ, plan, idx[:1], prefixes=plan.retained[:1])  # lowering cache
        tracemalloc.start()
        try:
            run_batched(circ, plan, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20, f"run_batched peaked at {peak / 2**20:.1f} MiB"

    def test_one_prefix_holds_the_tile_and_at_most_one_copy(self):
        # the last branch completion runs on the tile itself, and each
        # branch copy is released before the next is made
        circ = generate(GenSpec(4, 8, 12, "v2", seed=0))
        idx = np.arange(64, dtype=np.int64)
        for x_b, bound in ((0, 1.9), (2, 2.9)):
            plan = make_plan(circ, x_b=x_b, seed=0)
            tile = 8 * ((1 << plan.cut.n_a) + (1 << plan.cut.n_b))
            pathsum._lower(circ, plan.cut)
            tracemalloc.start()
            try:
                run_batched(circ, plan, idx, prefixes=plan.retained[:1])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * tile, f"x_b={x_b}: {peak / tile:.2f} tiles"

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


def _sha(batch):
    return hashlib.sha256(batch.amps.tobytes()).hexdigest()


def _tile_bytes(plan, rows):
    return rows * 8 * ((1 << plan.cut.n_a) + (1 << plan.cut.n_b))


class TestThreadedTiles:
    def test_amplitudes_do_not_depend_on_the_thread_count(self, monkeypatch, circuit_4x4_d16):
        idx = np.unique(np.random.default_rng(1).integers(0, 1 << 16, size=256))
        # (x_b, tile rows, tiles): gather cells with fewer and more tiles than threads
        for x_b, rows, n_tiles in ((2, 7, 5), (0, 64, 2)):
            plan = make_plan(circuit_4x4_d16, fidelity=0.5, x_b=x_b, seed=3)
            monkeypatch.setattr(statevec, "_SLICE_BYTES", _tile_bytes(plan, rows))
            assert -(-len(plan.retained) // rows) == n_tiles
            digests = set()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch threads often, so a lost update would show
            try:
                for threads in (1, 2, 3):
                    monkeypatch.setattr(pathsum, "_THREADS", threads)
                    monkeypatch.setattr(pathsum, "_TILES_AT_ONCE", threads)
                    digests.add(_sha(run_batched(circuit_4x4_d16, plan, idx)))
            finally:
                sys.setswitchinterval(interval)
            assert len(digests) == 1, f"x_b={x_b}"
            monkeypatch.undo()

    def test_a_raising_tile_stops_the_call_and_its_threads(self, monkeypatch, circuit_4x4_d16):
        plan = make_plan(circuit_4x4_d16, fidelity=0.5, x_b=2, seed=3)
        idx = np.arange(64)
        rows = 4
        monkeypatch.setattr(statevec, "_SLICE_BYTES", _tile_bytes(plan, rows))
        monkeypatch.setattr(pathsum, "_THREADS", 2)
        third = plan.retained[2 * rows]
        boom = RuntimeError("third tile")
        digit_columns = pathsum._digit_columns

        def raising(ids, radices):
            if ids.size and ids[0] == third:
                raise boom
            return digit_columns(ids, radices)

        monkeypatch.setattr(pathsum, "_digit_columns", raising)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as err:
            run_batched(circuit_4x4_d16, plan, idx)
        assert err.value is boom
        assert threading.active_count() == before

    def test_one_tile_and_joint_calls_start_no_thread(self, monkeypatch, circuit_4x4_d16):
        plan = make_plan(circuit_4x4_d16, fidelity=0.5, x_b=0, seed=3)
        idx = np.arange(256)
        monkeypatch.setattr(pathsum, "_THREADS", 2)
        want = {
            "one prefix": run_batched(circuit_4x4_d16, plan, idx, prefixes=plan.retained[:1]),
            "joint": run_batched(circuit_4x4_d16, plan, np.arange(1 << 16)),
        }

        def refuse(self):
            raise RuntimeError("thread started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(statevec, "_SLICE_BYTES", _tile_bytes(plan, 4))
        with pytest.raises(RuntimeError, match="thread started"):
            run_batched(circuit_4x4_d16, plan, idx)  # threads where they pay
        got = {
            "one prefix": run_batched(circuit_4x4_d16, plan, idx, prefixes=plan.retained[:1]),
            "joint": run_batched(circuit_4x4_d16, plan, np.arange(1 << 16)),
        }
        for name in want:
            np.testing.assert_allclose(got[name].amps, want[name].amps, atol=1e-6, err_msg=name)

    def test_more_cpus_do_not_grow_the_working_set(self, monkeypatch):
        # at most two tiles run at once, however many CPUs the process has
        circ = generate(GenSpec(4, 5, 20, "v2", seed=0))
        plan = make_plan(circ, fidelity=1 / 16, x_b=0, seed=0)
        idx = np.unique(np.random.default_rng(2).integers(0, 1 << 20, size=1024))
        run_batched(circ, plan, idx[:1], prefixes=plan.retained[:1])  # lowering cache
        peaks = {}
        for threads in (1, 2, 4, 8):
            monkeypatch.setattr(pathsum, "_THREADS", threads)
            tracemalloc.start()
            try:
                run_batched(circ, plan, idx)
                peaks[threads] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) <= 2 * peaks[1] + (1 << 20), peaks

    @pytest.mark.parametrize("cpus", [4, 8])
    def test_row_tiles_stay_small_on_many_cpus(self, monkeypatch, cpus):
        monkeypatch.setattr(pathsum, "_THREADS", cpus)
        TestPathSums().test_row_tiles_keep_the_working_set_small()


def _per_prefix_cells(circuit_4x4_d16):
    idx = np.unique(np.random.default_rng(1).integers(0, 1 << 16, size=256))
    c09 = generate(GenSpec(3, 4, 16, "v2", seed=6))
    return {
        "x_b=0 gather": (circuit_4x4_d16, make_plan(circuit_4x4_d16, fidelity=0.5, x_b=0, seed=3), idx),
        # c09's cell: one prefix of it alone lands through the joint matrix
        "c09 joint-sized": (c09, make_plan(c09, fidelity=1.0, x_p=5, seed=0), np.arange(4096)),
        "x_b=2 gather": (circuit_4x4_d16, make_plan(circuit_4x4_d16, fidelity=0.5, x_b=2, seed=3), idx),
    }


class TestPerPrefixRows:
    @pytest.mark.parametrize("cell", ["x_b=0 gather", "c09 joint-sized", "x_b=2 gather"])
    def test_each_row_equals_its_one_prefix_call(self, monkeypatch, circuit_4x4_d16, cell):
        circ, plan, idx = _per_prefix_cells(circuit_4x4_d16)[cell]
        prefixes = plan.retained[:12]
        want = [_sha(run_batched(circ, plan, idx, prefixes=[p])) for p in prefixes]
        row = 8 * ((1 << plan.cut.n_a) + (1 << plan.cut.n_b)) + 16 * idx.size
        for rows in (2, 5):
            monkeypatch.setattr(statevec, "_SLICE_BYTES", rows * row * plan.branch_space)
            assert pathsum.prefix_tile(plan, idx.size) == rows
            got = run_batched(circ, plan, idx, prefixes=prefixes, per_prefix=True)
            assert all(np.array_equal(b.indices, idx) for b in got)
            assert [_sha(b) for b in got] == want, f"{rows} prefixes per tile"

    def test_a_row_over_the_budget_gets_a_tile_of_its_own(self):
        # one complex128 output row of 2^17 requests is 2 MiB, twice the
        # slice budget, so each prefix is a tile of its own: three prefixes
        # hold one prefix's working set and two more output rows
        circ = generate(GenSpec(4, 8, 12, "v2", seed=0))
        idx = np.unique(np.random.default_rng(0).integers(0, 1 << 32, size=1 << 17))
        plan = make_plan(circ, x_b=2, seed=0)
        tile = 8 * ((1 << plan.cut.n_a) + (1 << plan.cut.n_b))
        row = 16 * idx.size
        assert row > statevec._SLICE_BYTES and pathsum.prefix_tile(plan, idx.size) == 1
        pathsum._lower(circ, plan.cut)
        peaks = {}
        for n in (1, 3):
            tracemalloc.start()
            try:
                run_batched(circ, plan, idx, prefixes=plan.retained[:n], per_prefix=True)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 3.75 * (tile + row), f"{peaks[1] / (tile + row):.2f} tiles and rows"
        extra = peaks[3] - peaks[1] - 2 * row
        assert extra <= 0.25 * tile, f"two more prefixes held {extra / tile:.2f} tiles beyond their rows"


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
