import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsim.benchgen import GenSpec, generate
from gridsim.circuit import (
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    ParseError,
    all_cuts,
    choose_cut,
    circuit_hash,
    cross_gates,
    gate_block,
    gate_matrix,
    parse_circuit,
    serialize_circuit,
)

HADAMARD_LAYER = "4\n0 h 0\n0 h 1\n0 h 2\n0 h 3\n"


class TestParse:
    def test_hadamard_layer(self):
        circ = parse_circuit(HADAMARD_LAYER)
        assert circ.n_qubits == 4
        assert len(circ.gates) == 4
        assert circ.n_cycles == 1
        assert all(g.kind is GateKind.H for g in circ.gates)
        assert sorted(g.qubits[0] for g in circ.gates) == [0, 1, 2, 3]

    def test_comments_and_blank_lines_ignored(self):
        text = "# header comment\n\n4\n# layer\n0 h 0\n\n0 h 1\n0 h 2\n0 h 3\n"
        assert len(parse_circuit(text).gates) == 4

    def test_gates_sorted_by_cycle_after_parse(self):
        text = "2\n3 t 0\n0 h 0\n1 t 0\n0 h 1\n2 t 1\n"
        circ = parse_circuit(text)
        assert [g.cycle for g in circ.gates] == sorted(g.cycle for g in circ.gates)

    def test_explicit_grid_shape(self):
        circ = parse_circuit("6\n0 h 0\n", rows=2, cols=3)
        assert (circ.rows, circ.cols) == (2, 3)

    def test_rejects_duplicate_qubit_in_gate(self):
        with pytest.raises(CircuitError):
            parse_circuit("4\n0 cz 0 0\n", rows=2, cols=2)

    def test_rejects_out_of_range_qubit(self):
        with pytest.raises(CircuitError):
            parse_circuit("4\n0 h 4\n")

    def test_rejects_busy_qubit_in_same_cycle(self):
        with pytest.raises(CircuitError):
            parse_circuit("4\n0 h 0\n0 t 0\n")

    def test_rejects_gap_in_cycle_numbering(self):
        with pytest.raises(CircuitError):
            parse_circuit("2\n0 h 0\n5 h 1\n")

    def test_rejects_unknown_gate_name(self):
        with pytest.raises(CircuitError):
            parse_circuit("2\n0 frob 0\n")

    def test_rejects_negative_cycle(self):
        with pytest.raises(CircuitError):
            parse_circuit("2\n-1 h 0\n")

    def test_rejects_bad_header(self):
        with pytest.raises(CircuitError):
            parse_circuit("zero\n0 h 0\n")


class TestGenericTwoQubit:
    def _text(self, mat):
        pairs = " ".join(f"{v.real:.17g} {v.imag:.17g}" for v in mat.reshape(-1))
        return f"4\n0 g2 0 1 {pairs}\n"

    def test_round_trips_unitary(self):
        mat = np.kron(gate_matrix(Gate(0, GateKind.H, (0,))), np.eye(2)).astype(np.complex128)
        circ = parse_circuit(self._text(mat), rows=2, cols=2)
        gate = circ.gates[0]
        assert gate.kind is GateKind.GENERIC_2Q
        np.testing.assert_allclose(gate_matrix(gate), mat, atol=1e-12)
        reparsed = parse_circuit(serialize_circuit(circ), rows=2, cols=2)
        np.testing.assert_allclose(gate_matrix(reparsed.gates[0]), mat, atol=1e-12)

    def test_rejects_non_unitary_matrix(self):
        mat = np.eye(4, dtype=np.complex128)
        mat[0, 0] = 1.5  # breaks U^dag U = I well past the 1e-6 gate
        with pytest.raises(CircuitError):
            parse_circuit(self._text(mat), rows=2, cols=2)

    def test_accepts_matrix_within_unitary_tolerance(self):
        mat = np.eye(4, dtype=np.complex128)
        mat[0, 0] = 1.0 + 1e-8
        parse_circuit(self._text(mat), rows=2, cols=2)


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(2, 3),
        cols=st.integers(2, 4),
        depth=st.integers(1, 14),
        version=st.sampled_from(["v1", "v2"]),
        seed=st.integers(0, 500),
    )
    def test_serialize_parse_identity(self, rows, cols, depth, version, seed):
        circ = generate(GenSpec(rows, cols, depth, version, seed=seed))
        back = parse_circuit(serialize_circuit(circ), rows=rows, cols=cols)
        assert len(back.gates) == len(circ.gates)
        for a, b in zip(circ.gates, back.gates):
            assert (a.cycle, a.kind, a.qubits) == (b.cycle, b.kind, b.qubits)
        assert serialize_circuit(back) == serialize_circuit(circ)

    def test_hash_stable_across_reparse(self, circuit_4x4_d16):
        back = parse_circuit(serialize_circuit(circuit_4x4_d16), rows=4, cols=4)
        assert circuit_hash(back) == circuit_hash(circuit_4x4_d16)

    def test_hash_changes_with_contents(self, circuit_4x4_d16):
        other = generate(GenSpec(4, 4, 16, "v2", seed=4))
        assert circuit_hash(other) != circuit_hash(circuit_4x4_d16)


class TestGateMatrices:
    def test_all_fixed_kinds_unitary(self):
        for kind in (GateKind.H, GateKind.T, GateKind.X_HALF, GateKind.Y_HALF):
            u = gate_matrix(Gate(0, kind, (0,)))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
        for kind in (GateKind.CZ, GateKind.ISWAP):
            u = gate_matrix(Gate(0, kind, (0, 1)))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_half_rotations_square_to_full(self):
        x5 = gate_matrix(Gate(0, GateKind.X_HALF, (0,)))
        y5 = gate_matrix(Gate(0, GateKind.Y_HALF, (0,)))
        np.testing.assert_allclose(x5 @ x5, np.array([[0, 1], [1, 0]]), atol=1e-12)
        np.testing.assert_allclose(y5 @ y5, np.array([[0, -1j], [1j, 0]]), atol=1e-12)

    def test_t_eighth_turn(self):
        t = gate_matrix(Gate(0, GateKind.T, (0,)))
        np.testing.assert_allclose(np.linalg.matrix_power(t, 8), np.eye(2), atol=1e-12)


class TestCuts:
    def test_cut_blocks_partition_row_major(self, circuit_4x4_d16):
        for cut in all_cuts(circuit_4x4_d16):
            qubits = sorted(cut.block_a + cut.block_b)
            assert qubits == list(range(16))
            if cut.orientation == "h":
                assert all(q // 4 <= cut.position for q in cut.block_a)
            else:
                assert all(q % 4 <= cut.position for q in cut.block_a)

    def test_balanced_split_on_4x4(self, circuit_4x4_d16):
        cut = choose_cut(circuit_4x4_d16)
        assert {len(cut.block_a), len(cut.block_b)} == {8}

    def test_7x7_splits_28_21(self):
        circ = generate(GenSpec(7, 7, 40, "v2", seed=0))
        cut = choose_cut(circ)
        assert sorted((len(cut.block_a), len(cut.block_b)), reverse=True) == [28, 21]
        assert len(cross_gates(circ, cut)) == 35

    def test_7x8_splits_evenly(self):
        circ = generate(GenSpec(7, 8, 22, "v2", seed=0))
        cut = choose_cut(circ)
        assert len(cut.block_a) == len(cut.block_b) == 28
        assert len(cross_gates(circ, cut)) == 17

    def test_no_two_qubit_gates_means_no_crossings(self):
        circ = parse_circuit(HADAMARD_LAYER, rows=2, cols=2)
        assert all(len(cross_gates(circ, cut)) == 0 for cut in all_cuts(circ))

    def test_deeper_circuits_never_cross_less(self):
        shallow = generate(GenSpec(4, 4, 12, "v2", seed=0))
        deep = generate(GenSpec(4, 4, 24, "v2", seed=0))
        for cs, cd in zip(all_cuts(shallow), all_cuts(deep)):
            assert len(cross_gates(deep, cd)) >= len(cross_gates(shallow, cs))


def _naive_side(gate, block_a):
    inside = [q in block_a for q in gate.qubits]  # tuple membership, no set
    return "a" if all(inside) else "b" if not any(inside) else "cross"


@pytest.mark.parametrize("rows, cols", [(r, c) for r in range(2, 8) for c in range(2, 9)])
def test_cut_classification_matches_the_naive_rule(rows, cols):
    n = rows * cols
    for variant in ("v1", "v2"):
        for kind in (GateKind.CZ, GateKind.ISWAP):
            circ = generate(GenSpec(rows, cols, 12, variant, seed=n, two_qubit=kind))
            naive_cross = {}
            for cut in all_cuts(circ):
                line = [q // cols if cut.orientation == "h" else q % cols for q in range(n)]
                assert cut.block_a == tuple(q for q in range(n) if line[q] <= cut.position)
                assert cut.block_b == tuple(q for q in range(n) if line[q] > cut.position)
                assert cut.block_a and cut.block_b
                assert sorted(cut.block_a + cut.block_b) == list(range(n))
                assert cut.in_a == set(cut.block_a)
                sides = [_naive_side(g, cut.block_a) for g in circ.gates]
                assert [gate_block(g, cut) for g in circ.gates] == sides
                want = [g for g, side in zip(circ.gates, sides) if side == "cross"]
                assert cross_gates(circ, cut) == want
                naive_cross[cut] = len(want)
            best = min(naive_cross, key=lambda c: (max(c.n_a, c.n_b), naive_cross[c],
                                                    c.position, c.orientation))
            assert choose_cut(circ) == best


class TestCircuitChecks:
    def test_single_qubit_grid_rejected_for_cz(self):
        with pytest.raises(CircuitError):
            parse_circuit("1\n0 cz 0 1\n")

    def test_n_cycles_is_last_cycle_plus_one(self):
        circ = parse_circuit("2\n0 h 0\n1 t 0\n2 h 0\n")
        assert circ.n_cycles == 3

    def test_empty_circuit_allowed(self):
        circ = Circuit(rows=2, cols=2)
        assert circ.n_qubits == 4
        assert circ.n_cycles == 0


_G2_QUBITS = "4\n0 g2 0 1 "


@pytest.mark.parametrize("make, error, line", [
    pytest.param(lambda: parse_circuit("2 3\n0 h 0\n"), ParseError, 1, id="count-line-fields"),
    pytest.param(lambda: parse_circuit("zero\n"), ParseError, 1, id="count-not-int"),
    pytest.param(lambda: parse_circuit("# c\n0\n"), ParseError, 2, id="count-not-positive"),
    pytest.param(lambda: parse_circuit("2\n0 h\n"), ParseError, 2, id="short-gate-line"),
    pytest.param(lambda: parse_circuit("2\nx h 0\n"), ParseError, 2, id="cycle-not-int"),
    pytest.param(lambda: parse_circuit("2\n\n0 frob 0\n"), ParseError, 3, id="unknown-gate"),
    pytest.param(lambda: parse_circuit(_G2_QUBITS + "1 0\n"), ParseError, 2, id="g2-entry-count"),
    pytest.param(lambda: parse_circuit(_G2_QUBITS + "x " * 32), ParseError, 2, id="g2-bad-entry"),
    pytest.param(lambda: parse_circuit("2\n0 h 0 1\n"), ParseError, 2, id="argument-count"),
    pytest.param(lambda: parse_circuit("2\n0 h a\n"), ParseError, 2, id="qubit-not-int"),
    pytest.param(lambda: parse_circuit("2\n0 h 0\n-1 t 1\n"), ParseError, 3, id="gate-check"),
    pytest.param(lambda: parse_circuit("# only comments\n\n"), ParseError, 1, id="empty-file"),
    pytest.param(lambda: parse_circuit("6\n0 h 0\n", rows=2, cols=2), CircuitError, None,
                 id="grid-does-not-hold"),
    pytest.param(lambda: parse_circuit("2\n0 h 2\n"), CircuitError, None, id="invalid-circuit"),
    pytest.param(lambda: Gate(0, GateKind.H, (0, 1)), CircuitError, None, id="gate-arity"),
    pytest.param(lambda: Gate(0, GateKind.GENERIC_2Q, (0, 1)), CircuitError, None,
                 id="g2-without-matrix"),
    pytest.param(lambda: Gate(0, GateKind.GENERIC_2Q, (0, 1), np.eye(2)), CircuitError, None,
                 id="g2-matrix-shape"),
    pytest.param(lambda: Gate(0, GateKind.H, (0,), np.eye(2)), CircuitError, None,
                 id="fixed-gate-with-matrix"),
    pytest.param(lambda: Circuit(0, 3), CircuitError, None, id="empty-grid"),
    pytest.param(lambda: choose_cut(Circuit(1, 1)), CircuitError, None, id="no-cut"),
])
def test_every_input_check_raises_its_error(make, error, line):
    with pytest.raises(CircuitError) as info:
        make()
    assert type(info.value) is error
    if error is ParseError:
        assert info.value.lineno == line
        assert str(info.value).startswith(f"line {line}: ")
