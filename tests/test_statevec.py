import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import assert_states_close
from gridsim import statevec
from gridsim.benchgen import GenSpec, generate
from gridsim.circuit import Circuit, Gate, GateKind, gate_matrix, parse_circuit
from gridsim.statevec import (
    _b_diag1,
    _b_diag2,
    _b_mat1,
    _b_mat2,
    _tile_op,
    _tiles,
    apply_op,
    cluster_gates,
    fetch_amplitudes,
    lower_gate,
    read_amplitudes,
    run_full,
    write_amplitudes,
)
from oracles import _apply_1q, _apply_2q, naive_state

INV_SQRT2 = 1.0 / np.sqrt(2.0)
ONE_QUBIT = (GateKind.H, GateKind.T, GateKind.X_HALF, GateKind.Y_HALF)
TWO_QUBIT = (GateKind.CZ, GateKind.ISWAP, GateKind.GENERIC_2Q)


def _random_unitary(rng, dim):
    z = rng.normal(size=(2, dim, dim))
    u, _ = np.linalg.qr(z[0] + 1j * z[1])
    return u


def _random_gates(rng, qubits, pairs, count):
    """count seeded gates, one per cycle: one-qubit kinds on qubits, and
    CZ, iSWAP or a random g2 on pairs, each pair in a random order."""
    gates = []
    for cycle in range(count):
        if rng.random() < 0.5:
            kind = ONE_QUBIT[rng.integers(len(ONE_QUBIT))]
            gates.append(Gate(cycle, kind, (int(rng.choice(qubits)),)))
            continue
        pair = pairs[rng.integers(len(pairs))]
        pair = pair[::-1] if rng.random() < 0.5 else pair
        kind = TWO_QUBIT[rng.integers(len(TWO_QUBIT))]
        matrix = _random_unitary(rng, 4) if kind is GateKind.GENERIC_2Q else None
        gates.append(Gate(cycle, kind, pair, matrix))
    return gates


class TestSingleGates:
    def test_hadamard_on_zero(self):
        state = run_full(parse_circuit("1\n0 h 0\n"))
        assert_states_close(state.amps, [INV_SQRT2, INV_SQRT2], 1e-6)

    def test_cz_negates_one_one(self):
        state = run_full(parse_circuit("2\n0 h 0\n0 h 1\n1 cz 0 1\n"))
        assert_states_close(state.amps, [0.5, 0.5, 0.5, -0.5], 1e-6)

    def test_iswap_moves_excitation_with_phase(self):
        # two x_1_2 gates make a full X on qubit 0, then is sends
        # |10> to i|01>
        text = "2\n0 x_1_2 0\n1 x_1_2 0\n2 is 0 1\n"
        state = run_full(parse_circuit(text, rows=1, cols=2))
        assert_states_close(state.amps, [0.0, 1.0j, 0.0, 0.0], 1e-6)

    def test_four_t_make_z(self):
        text = "1\n0 h 0\n1 t 0\n2 t 0\n3 t 0\n4 t 0\n"
        state = run_full(parse_circuit(text))
        assert_states_close(state.amps, [INV_SQRT2, -INV_SQRT2], 1e-6)

    def test_double_hadamard_layer_returns_to_zero(self):
        text = "4\n" + "".join(f"0 h {q}\n" for q in range(4)) + "".join(
            f"1 h {q}\n" for q in range(4)
        )
        state = run_full(parse_circuit(text, rows=2, cols=2))
        expect = np.zeros(16)
        expect[0] = 1.0
        assert_states_close(state.amps, expect, 1e-6)


class TestClusters:
    def test_empty_circuit_has_no_clusters(self):
        assert cluster_gates(Circuit(rows=2, cols=2)) == []


def _straddling_circuit(rows, cols):
    """Seeded gates that cross every tile boundary.

    6 qubits fit one tile; 9, 10 and 16 are not multiples of the tile
    width.  Two-qubit gates join the qubits on either side of every tile
    boundary, the ends of one tile and the first and last qubits, so runs
    are flushed from both tiles a gate spans.
    """
    n = rows * cols
    tiles = _tiles(n)
    pairs = [(q0 - 1, q0) for q0, _ in tiles[1:]] + [(0, n - 1)]
    pairs += [(q0, q0 + k - 1) for q0, k in tiles if k > 1]
    gates = _random_gates(np.random.default_rng(n), np.arange(n), pairs, 40 * n)
    return Circuit(rows, cols, gates)


def _replay_clusters(circuit, clusters) -> np.ndarray:
    """The gates of clusters, in cluster order, on a complex128 state."""
    n = circuit.n_qubits
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    spare = np.empty_like(state)
    for cl in clusters:
        for gate in cl.gates:
            if len(gate.qubits) == 1:
                _apply_1q(state, gate_matrix(gate), gate.qubits[0], n, spare)
            else:
                _apply_2q(state, gate_matrix(gate), *gate.qubits, n, spare)
            state, spare = spare, state
    return state


def _count_state_ops(monkeypatch, circuit) -> int:
    """apply_op calls that run_full makes on its 2^n-amplitude array."""
    calls = 0

    def counting(op, blocks, n_blk):
        nonlocal calls
        # _tile_op composes its matrix through apply_op on a (2^k, 2^k) batch
        calls += blocks[0].shape == (1, 1 << circuit.n_qubits)
        apply_op(op, blocks, n_blk)

    monkeypatch.setattr(statevec, "apply_op", counting)
    run_full(circuit)
    return calls


SCHEDULE_CIRCUITS = {
    f"straddling_{r * c}": (lambda r=r, c=c: _straddling_circuit(r, c))
    for r, c in [(2, 3), (3, 3), (2, 5), (2, 7), (4, 4)]
}
SCHEDULE_CIRCUITS["generated_7"] = lambda: generate(GenSpec(1, 7, 12, "v2", seed=0))
over_schedule_circuits = pytest.mark.parametrize("name", list(SCHEDULE_CIRCUITS))


class TestRunFull:
    # cluster_gates is the schedule run_full applies

    @over_schedule_circuits
    def test_every_gate_lands_in_exactly_one_cluster(self, name):
        circ = SCHEDULE_CIRCUITS[name]()
        placed = [id(g) for cl in cluster_gates(circ) for g in cl.gates]
        assert sorted(placed) == sorted(id(g) for g in circ.gates)

    @over_schedule_circuits
    def test_clusters_are_tile_runs_or_lone_gates(self, name):
        circ = SCHEDULE_CIRCUITS[name]()
        n = circ.n_qubits
        tile_of = {q: t for t, (q0, k) in enumerate(_tiles(n)) for q in range(q0, q0 + k)}
        for cl in cluster_gates(circ):
            if cl.tile is not None:
                q0, k = cl.tile
                assert all(q0 <= q < q0 + k for g in cl.gates for q in g.qubits)
                continue
            (gate,) = cl.gates
            spans = len({tile_of[q] for q in gate.qubits}) == 2
            assert spans or n <= 7, (gate, cl)

    @over_schedule_circuits
    def test_replaying_clusters_in_order_matches_naive(self, name):
        circ = SCHEDULE_CIRCUITS[name]()
        got = _replay_clusters(circ, cluster_gates(circ))
        assert_states_close(got, naive_state(circ), 1e-12)

    @over_schedule_circuits
    def test_run_full_applies_one_op_per_cluster(self, name, monkeypatch):
        circ = SCHEDULE_CIRCUITS[name]()
        assert _count_state_ops(monkeypatch, circ) == len(cluster_gates(circ))

    @pytest.mark.parametrize("two_qubit", [GateKind.CZ, GateKind.ISWAP], ids=["CZ", "ISWAP"])
    def test_engine_matches_naive_on_many_small_circuits(self, two_qubit):
        rng = np.random.default_rng(10)
        shapes = [(2, 3), (2, 4), (3, 3), (2, 5)]
        for trial in range(1000):
            rows, cols = shapes[rng.integers(len(shapes))]
            depth = int(rng.integers(3, 13))
            version = "v1" if trial % 2 else "v2"
            spec = GenSpec(rows, cols, depth, version, two_qubit, seed=int(rng.integers(1 << 30)))
            circ = generate(spec)
            got = run_full(circ).amps.astype(np.complex128)
            assert_states_close(got, naive_state(circ), 1e-5)

    def test_descending_two_qubit_gates_match_naive(self):
        # the generator lists every pair in ascending order; here each
        # two-qubit kind names its higher qubit first
        z = np.random.default_rng(7).normal(size=(2, 4, 4))
        u, _ = np.linalg.qr(z[0] + 1j * z[1])
        entries = " ".join(f"{v.real:.17g} {v.imag:.17g}" for v in u.ravel())
        text = (
            "6\n"
            + "".join(f"0 h {q}\n" for q in range(6))
            + "1 is 4 1\n1 t 0\n2 cz 2 1\n2 x_1_2 4\n"
            + f"3 g2 5 4 {entries}\n3 y_1_2 1\n4 is 1 0\n"
        )
        circ = parse_circuit(text, rows=2, cols=3)
        assert_states_close(run_full(circ).amps, naive_state(circ), 1e-5)

    @pytest.mark.parametrize(
        "rows, cols", [(2, 3), (3, 3), (2, 5), (2, 7), (4, 4)], ids=["6", "9", "10", "14", "16"]
    )
    def test_gates_straddling_tiles_match_naive(self, rows, cols):
        circ = _straddling_circuit(rows, cols)
        assert_states_close(run_full(circ).amps, naive_state(circ), 1e-5)

    def test_one_tile_applies_gates_directly(self, monkeypatch):
        # a fused matrix over the whole state would cost 2^n per gate
        def no_tile_op(*args):
            raise AssertionError("one tile covers the state: no fused matrix")

        monkeypatch.setattr(statevec, "_tile_op", no_tile_op)
        circ = generate(GenSpec(2, 3, 20, "v2", seed=0))
        assert_states_close(run_full(circ).amps, naive_state(circ), 1e-5)

    def test_matches_naive_at_25_qubits(self):
        circ = generate(GenSpec(5, 5, 10, "v2", seed=0))
        state = run_full(circ)
        assert_states_close(state.amps, naive_state(circ), 1e-5)

    def test_peak_memory_beyond_the_state_is_small(self):
        # fused tiles work in slices of about 1 MB; whole-state temporaries
        # would add several MiB per gate at 20 qubits (an 8 MiB state)
        circ = generate(GenSpec(4, 5, 16, "v2", seed=0))
        tracemalloc.start()
        try:
            state = run_full(circ)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = peak - state.amps.nbytes
        assert extra < 8 << 20, f"run_full peaked {extra / 2**20:.1f} MiB above its state"

    def test_norm_conserved(self, circuit_4x4_d16):
        amps = run_full(circuit_4x4_d16).amps
        norm = float(np.vdot(amps, amps).real)
        assert abs(norm - 1.0) < 1e-4

    def test_mean_probability_near_uniform(self, circuit_4x4_d16):
        amps = run_full(circuit_4x4_d16).amps.astype(np.complex128)
        probs = np.abs(amps) ** 2
        rng = np.random.default_rng(5)
        picks = probs[rng.integers(0, 1 << 16, size=100000)]
        mean = picks.mean()
        # Porter-Thomas variance of the mean: p_bar / sqrt(k)
        sigma = (1.0 / (1 << 16)) / np.sqrt(picks.size)
        assert abs(mean - 1.0 / (1 << 16)) < 3 * sigma


def _random_rows(rng, rows, nb):
    z = rng.normal(size=(2, rows, 1 << nb))
    return (z[0] + 1j * z[1]).astype(np.complex64) / np.float32(2 ** (nb / 2))


# Every position of a 6-qubit block, and the runs of 1, 2, 4 and 8 amplitudes
# below the top four positions of a 12-qubit one.
_POSITIONS = [(6, q) for q in range(6)] + [(12, q) for q in range(8, 12)]
_PAIRS = [
    (nb, qa, qb)
    for nb, qubits in ((6, range(6)), (12, (0, 5, 8, 9, 10, 11)))
    for qa in qubits
    for qb in qubits
    if qa != qb
]
# The kernels split runs shorter than a cache line into columns when each
# column is long (here, at 28 rows of 12 qubits); at 0 they split every one.
_SPLITS = (statevec._COLUMN_AMPS, 0)


def _pair_formula2(arr, nb, qa, qb, u):
    """u applied as sums over the quarters of the plain (unsplit) view, in
    the kernel's order and precision; a zero term adds nothing."""

    def quarter(a, i, j):  # the amplitudes with qubit qa at i and qb at j
        lo, hi = sorted((qa, qb))
        view = a.reshape(a.shape[0], 1 << lo, 2, 1 << (hi - lo - 1), 2, -1)
        return view[:, :, j, :, i, :] if qa > qb else view[:, :, i, :, j, :]

    bits = list(itertools.product((0, 1), (0, 1)))
    out = np.empty_like(arr)
    for row, (i, j) in zip(u, bits):
        terms = [complex(c) * quarter(arr, k, l) for c, (k, l) in zip(row, bits)]
        quarter(out, i, j)[...] = terms[0] + terms[1] + terms[2] + terms[3]
    return out


class TestKernels:
    @pytest.mark.parametrize(
        "nb, q0, k, rows",
        [(17, 12, 5, 2), (17, 10, 5, 2), (12, 2, 5, 3), (18, 0, 5, 1)],
        ids=["none_below", "fewer_than_k_below", "k_or_more_below", "one_row_over_a_slice"],
    )
    def test_tile_equals_gate_by_gate(self, nb, q0, k, rows):
        rng = np.random.default_rng(nb + q0)
        tile = np.arange(q0, q0 + k)
        pairs = [(int(a), int(b)) for a in tile for b in tile if a < b]
        gates = _random_gates(rng, tile, pairs, 30)
        arr = _random_rows(rng, rows, nb)
        want = arr.copy()
        for g in gates:
            apply_op(lower_gate(g, 0, range(nb)), [want], (nb,))
        apply_op(_tile_op(gates, q0, k), [arr], (nb,))
        assert_states_close(arr, want, 1e-6)

    @pytest.mark.parametrize(
        "d",
        [
            np.diag(gate_matrix(Gate(0, GateKind.T, (0,)))),
            np.array([1, 0]),
            np.array([0, 1]),
            np.array([1, 1]),
            np.array([1, -1]),
            np.array([1j, -1]),
        ],
        ids=["T", "P0", "P1", "I", "Z", "no_unit_entry"],
    )
    def test_diag1_equals_broadcast_multiply(self, d, monkeypatch):
        d = d.astype(np.complex64)
        rng = np.random.default_rng(0)
        for (nb, q), rows, column_amps in itertools.product(_POSITIONS, (1, 28), _SPLITS):
            monkeypatch.setattr(statevec, "_COLUMN_AMPS", column_amps)
            arr = _random_rows(rng, rows, nb)
            view = arr.reshape(rows, 1 << q, 2, -1)
            per_row = d * rng.choice([1, 1j, -1], size=(rows, 1)).astype(np.complex64)
            for diag, want in (
                (d, view * d.reshape(1, 1, 2, 1)),
                (per_row, view * per_row.reshape(rows, 1, 2, 1)),
            ):
                got = arr.copy()
                _b_diag1(got, nb, q, diag)
                assert np.array_equal(got, want.reshape(rows, -1)), (nb, q, rows, column_amps)

    @pytest.mark.parametrize("per_row", [False, True], ids=["one_matrix", "per_row_stack"])
    def test_mat1_equals_pair_formula(self, per_row, monkeypatch):
        rng = np.random.default_rng(2)
        for (nb, q), rows, column_amps in itertools.product(_POSITIONS, (1, 28), _SPLITS):
            monkeypatch.setattr(statevec, "_COLUMN_AMPS", column_amps)
            arr = _random_rows(rng, rows, nb)
            view = arr.reshape(rows, 1 << q, 2, -1)
            v0, v1 = view[:, :, 0], view[:, :, 1]
            if per_row:
                u = np.stack([_random_unitary(rng, 2) for _ in range(rows)]).astype(np.complex64)
                c = u.reshape(rows, 2, 2, 1, 1)
                want = [c[:, i, 0] * v0 + c[:, i, 1] * v1 for i in (0, 1)]
            else:
                u = _random_unitary(rng, 2).astype(np.complex64)
                want = [u[i, 0] * v0 + u[i, 1] * v1 for i in (0, 1)]
            got = arr.copy()
            _b_mat1(got, nb, q, u)
            want = np.stack(want, axis=2).reshape(rows, -1)
            assert np.array_equal(got, want), (nb, q, rows, column_amps)

    @pytest.mark.parametrize("kind", [GateKind.ISWAP, GateKind.GENERIC_2Q], ids=["iSWAP", "g2"])
    def test_mat2_equals_pair_formula(self, kind, monkeypatch):
        rng = np.random.default_rng(3)
        matrix = _random_unitary(rng, 4) if kind is GateKind.GENERIC_2Q else None
        u = gate_matrix(Gate(0, kind, (0, 1), matrix))
        for (nb, qa, qb), rows, column_amps in itertools.product(_PAIRS, (1, 28), _SPLITS):
            monkeypatch.setattr(statevec, "_COLUMN_AMPS", column_amps)
            arr = _random_rows(rng, rows, nb)
            got = arr.copy()
            _b_mat2(got, nb, qa, qb, u)
            want = _pair_formula2(arr, nb, qa, qb, u)
            assert np.array_equal(got, want), (nb, qa, qb, rows, column_amps)

    @pytest.mark.parametrize(
        "d4", [np.array([1, 1, 1, -1]), np.array([1, 1j, 1, -1])], ids=["CZ", "asymmetric"]
    )
    def test_diag2_equals_broadcast_multiply(self, d4, monkeypatch):
        d4 = d4.astype(np.complex64)
        rng = np.random.default_rng(1)
        for (nb, qa, qb), rows, column_amps in itertools.product(_PAIRS, (1, 28), _SPLITS):
            monkeypatch.setattr(statevec, "_COLUMN_AMPS", column_amps)
            arr = _random_rows(rng, rows, nb)
            bits = (np.arange(1 << nb)[:, None] >> (nb - 1 - np.arange(nb))) & 1
            got = arr.copy()
            _b_diag2(got, nb, qa, qb, d4)
            want = arr * d4[2 * bits[:, qa] + bits[:, qb]]
            assert np.array_equal(got, want), (nb, qa, qb, rows, column_amps)


class TestAmplitudeIO:
    def test_fetch_matches_state(self, circuit_3x3_d12):
        state = run_full(circuit_3x3_d12)
        idx = np.array([0, 5, 17, 511], dtype=np.int64)
        batch = fetch_amplitudes(state, idx)
        np.testing.assert_array_equal(batch.indices, idx)
        np.testing.assert_allclose(batch.amps, state.amps[idx], atol=1e-9)

    def test_fetch_rejects_out_of_range(self, circuit_3x3_d12):
        state = run_full(circuit_3x3_d12)
        with pytest.raises(Exception):
            fetch_amplitudes(state, np.array([1 << 9], dtype=np.int64))

    def test_fetch_names_the_first_index_outside(self, circuit_3x3_d12):
        state = run_full(circuit_3x3_d12)
        for bad, word in (([3, 1 << 9, -1], "200"), ([3, -5, 1 << 10], "-5")):
            with pytest.raises(IndexError, match=f"^index {word} is outside the 9-qubit state$"):
                fetch_amplitudes(state, np.array(bad, dtype=np.int64))

    def test_digits_below_one_rejected_before_the_file_opens(self, tmp_path):
        path = tmp_path / "amps.txt"
        with pytest.raises(ValueError, match="digits must be at least 1, got 0"):
            write_amplitudes(path, statevec.AmplitudeBatch([0], [1.0]), digits=0)
        assert not path.exists()

    def test_write_read_round_trip(self, tmp_path, circuit_3x3_d12):
        state = run_full(circuit_3x3_d12)
        batch = fetch_amplitudes(state, np.arange(32, dtype=np.int64))
        path = tmp_path / "amps.txt"
        write_amplitudes(path, batch, digits=17, header={"tag": "roundtrip"})
        back, header = read_amplitudes(path)
        assert header["tag"] == "roundtrip"
        np.testing.assert_array_equal(back.indices, batch.indices)
        np.testing.assert_array_equal(
            back.amps.astype(np.complex128), batch.amps.astype(np.complex128)
        )

    def test_batch_rejects_indices_and_amplitudes_of_different_lengths(self):
        with pytest.raises(ValueError, match="indices and amplitudes differ in length"):
            statevec.AmplitudeBatch([0, 1], [1.0])

    def test_exact_payload_with_non_base64_characters_rejected(self, tmp_path):
        # a2b_base64 drops the four '!' and decodes 3 bytes short, although
        # the sha256 and count headers match the payload as written
        path = tmp_path / "exact.amp"
        write_amplitudes(path, statevec.AmplitudeBatch([0, 1], [1.0, 0.5j]), digits=None)
        lines = path.read_text().splitlines()
        payload = "!!!!" + lines[-1][4:]
        digest = hashlib.sha256(payload.encode()).hexdigest()
        path.write_text(f"# count 2\n# sha256 {digest}\n{payload}\n")
        with pytest.raises(ValueError, match="^exact payload holds 45 bytes, not 2 amplitudes$"):
            read_amplitudes(path)

    def test_indented_first_data_line_parses(self, tmp_path):
        path = tmp_path / "amps.txt"
        path.write_text("# n_qubits 1\n  0 1.0 0.0\n1 0.0 -0.5\n")
        batch, header = read_amplitudes(path)
        assert header == {"n_qubits": "1"}
        np.testing.assert_array_equal(batch.indices, [0, 1])
        np.testing.assert_array_equal(batch.amps, [1.0, -0.5j])

    def test_comment_lines_after_the_data_are_skipped(self, tmp_path):
        path = tmp_path / "amps.txt"
        path.write_text("# n_qubits 1\n0 1.0 0.0\n# tag late\n\n1 0.0 0.0\n")
        batch, header = read_amplitudes(path)
        assert header == {"n_qubits": "1"}
        np.testing.assert_array_equal(batch.indices, [0, 1])

    @pytest.mark.parametrize("line", ["zz 1.0 0.0", "0 1.0", "0 1.0 0.0 7", "0 1.0 x"])
    def test_malformed_text_line_names_file_and_line(self, tmp_path, line):
        # line numbers count the header and blank lines before the data
        path = tmp_path / "bad.amp"
        path.write_text(f"# n_qubits 1\n\n1 0.5 0.0\n{line}\n")
        want = f"{path}: line 4: '{line}' is not 'index_hex re im'"
        with pytest.raises(ValueError) as info:
            read_amplitudes(path)
        assert str(info.value) == want
