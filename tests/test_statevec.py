import tracemalloc

import numpy as np
import pytest

from conftest import assert_states_close
from gridsim import statevec
from gridsim.benchgen import GenSpec, generate
from gridsim.circuit import Circuit, Gate, GateKind, gate_matrix, parse_circuit
from gridsim.statevec import (
    ClusterKind,
    _b_diag1,
    _b_diag2,
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
from oracles import naive_state

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
    def test_t_only_circuit_is_single_diagonal_cluster(self):
        text = "3\n" + "".join(f"{c} t {q}\n" for c in range(5) for q in range(3))
        circ = parse_circuit(text, rows=1, cols=3)
        clusters = cluster_gates(circ)
        assert len(clusters) == 1
        assert clusters[0].kind is ClusterKind.DIAGONAL
        assert list(clusters[0].t_counts[:3]) == [5, 5, 5]

    def test_t_counts_wrap_mod_8(self):
        text = "1\n" + "".join(f"{c} t 0\n" for c in range(9))
        clusters = cluster_gates(parse_circuit(text))
        assert len(clusters) == 1
        assert clusters[0].t_counts[0] == 1

    def test_empty_circuit_has_no_clusters(self):
        assert cluster_gates(Circuit(rows=2, cols=2)) == []

    def test_cz_pairs_merge_into_diagonal_cluster(self):
        text = "4\n0 cz 0 1\n0 t 2\n1 cz 2 3\n"
        clusters = cluster_gates(parse_circuit(text, rows=2, cols=2))
        assert len(clusters) == 1
        assert clusters[0].cz_parity == {(0, 1): 1, (2, 3): 1}

    def test_repeated_cz_cancels_to_identity_cluster(self):
        # both CZ land in one diagonal cluster; the pair parity cancels and
        # the resulting identity cluster is dropped entirely
        text = "4\n0 cz 0 1\n1 cz 0 1\n"
        assert cluster_gates(parse_circuit(text, rows=2, cols=2)) == []


class TestRunFull:
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
        # 6 qubits fit one tile; 9, 10 and 16 are not multiples of the
        # tile width.  Two-qubit gates join the qubits on either side of
        # every tile boundary, the ends of one tile and the first and last
        # qubits, so runs are flushed from both tiles a gate spans.
        n = rows * cols
        tiles = _tiles(n)
        pairs = [(q0 - 1, q0) for q0, _ in tiles[1:]] + [(0, n - 1)]
        pairs += [(q0, q0 + k - 1) for q0, k in tiles if k > 1]
        gates = _random_gates(np.random.default_rng(n), np.arange(n), pairs, 40 * n)
        circ = Circuit(rows, cols, gates)
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
    def test_diag1_equals_broadcast_multiply(self, d):
        d = d.astype(np.complex64)
        nb, rows = 6, 3
        arr = _random_rows(np.random.default_rng(0), rows, nb)
        for q in range(nb):
            got = arr.copy()
            _b_diag1(got, nb, q, d)
            want = arr.reshape(rows, 1 << q, 2, -1) * d.reshape(1, 1, 2, 1)
            assert np.array_equal(got, want.reshape(rows, -1))

    @pytest.mark.parametrize(
        "d4", [np.array([1, 1, 1, -1]), np.array([1, 1j, 1, -1])], ids=["CZ", "asymmetric"]
    )
    def test_diag2_equals_broadcast_multiply(self, d4):
        d4 = d4.astype(np.complex64)
        nb, rows = 6, 3
        arr = _random_rows(np.random.default_rng(1), rows, nb)
        bits = (np.arange(1 << nb)[:, None] >> (nb - 1 - np.arange(nb))) & 1
        for qa in range(nb):
            for qb in range(nb):
                if qa == qb:
                    continue
                got = arr.copy()
                _b_diag2(got, nb, qa, qb, d4)
                want = arr * d4[2 * bits[:, qa] + bits[:, qb]]
                assert np.array_equal(got, want), (qa, qb)


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
