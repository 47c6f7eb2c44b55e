import numpy as np
import pytest

from conftest import assert_states_close
from gridsim.benchgen import GenSpec, generate
from gridsim.circuit import Circuit, GateKind, parse_circuit
from gridsim.statevec import (
    ClusterKind,
    MemoryBudgetError,
    cluster_gates,
    fetch_amplitudes,
    read_amplitudes,
    run_full,
    write_amplitudes,
)
from oracles import naive_state

INV_SQRT2 = 1.0 / np.sqrt(2.0)


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

    def test_matches_naive_at_25_qubits(self):
        circ = generate(GenSpec(5, 5, 10, "v2", seed=0))
        state = run_full(circ)
        assert_states_close(state.amps, naive_state(circ), 1e-5)

    def test_norm_conserved(self, circuit_4x4_d16):
        amps = run_full(circuit_4x4_d16).amps
        norm = float(np.vdot(amps, amps).real)
        assert abs(norm - 1.0) < 1e-4

    def test_memory_budget_enforced(self):
        circ = generate(GenSpec(4, 4, 8, "v2", seed=0))
        with pytest.raises(MemoryBudgetError):
            run_full(circ, mem_limit=1 << 10)

    def test_mean_probability_near_uniform(self, circuit_4x4_d16):
        amps = run_full(circuit_4x4_d16).amps.astype(np.complex128)
        probs = np.abs(amps) ** 2
        rng = np.random.default_rng(5)
        picks = probs[rng.integers(0, 1 << 16, size=100000)]
        mean = picks.mean()
        # Porter-Thomas variance of the mean: p_bar / sqrt(k)
        sigma = (1.0 / (1 << 16)) / np.sqrt(picks.size)
        assert abs(mean - 1.0 / (1 << 16)) < 3 * sigma


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
