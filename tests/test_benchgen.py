import numpy as np
import pytest

from gridsim.benchgen import GenSpec, audit, generate, instance_filename, layer_schedule
from gridsim.circuit import CircuitError, GateKind, circuit_hash, parse_circuit, serialize_circuit
from gridsim.pathsum import make_plan


def two_qubit_pairs_by_cycle(circ):
    out = {}
    for g in circ.gates:
        if len(g.qubits) == 2:
            out.setdefault(g.cycle, set()).add(tuple(sorted(g.qubits)))
    return out


def all_grid_pairs(rows, cols):
    pairs = set()
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                pairs.add((q, q + 1))
            if r + 1 < rows:
                pairs.add((q, q + cols))
    return pairs


class TestLayout:
    def test_every_pair_once_per_eight_working_cycles(self):
        rows, cols, depth = 4, 5, 24
        circ = generate(GenSpec(rows, cols, depth, "v2", seed=0))
        by_cycle = two_qubit_pairs_by_cycle(circ)
        grid_pairs = all_grid_pairs(rows, cols)
        # working cycles are 1..depth; slide every full 8-cycle window
        for start in range(1, depth + 1 - 8 + 1):
            window = [p for c in range(start, start + 8) for p in by_cycle.get(c, ())]
            assert sorted(window) == sorted(grid_pairs)

    def test_schedule_has_eight_distinct_layers(self):
        layers = layer_schedule(6, 6, "v2")
        assert len(layers) == 8
        seen = set()
        for layer in layers:
            for pair in layer:
                assert pair not in seen
                seen.add(pair)
        assert seen == all_grid_pairs(6, 6)

    def test_v1_and_v2_use_same_layers_in_different_order(self):
        v1 = layer_schedule(5, 5, "v1")
        v2 = layer_schedule(5, 5, "v2")
        key = lambda layer: tuple(sorted(layer))
        assert sorted(map(key, v1)) == sorted(map(key, v2))
        assert list(map(key, v1)) != list(map(key, v2))

    def test_iswap_variant_keeps_cz_layout(self):
        cz = generate(GenSpec(4, 4, 16, "v2", seed=3))
        isw = generate(GenSpec(4, 4, 16, "v2", seed=3, two_qubit=GateKind.ISWAP))
        assert two_qubit_pairs_by_cycle(isw) == two_qubit_pairs_by_cycle(cz)
        kinds = {g.kind for g in isw.gates if len(g.qubits) == 2}
        assert kinds == {GateKind.ISWAP}

    def test_iswap_path_space_squares_binary_one(self):
        cz = generate(GenSpec(3, 3, 10, "v2", seed=1))
        isw = generate(GenSpec(3, 3, 10, "v2", seed=1, two_qubit=GateKind.ISWAP))
        p_cz = make_plan(cz, x_b=0)
        p_isw = make_plan(isw, x_b=0)
        assert p_cz.x == p_isw.x
        assert p_isw.path_space == p_cz.path_space**2


class TestFillRules:
    def test_first_cycle_is_hadamard_layer(self):
        circ = generate(GenSpec(3, 4, 12, "v2", seed=5))
        first = [g for g in circ.gates if g.cycle == 0]
        assert {g.kind for g in first} == {GateKind.H}
        assert {g.qubits[0] for g in first} == set(range(12))

    def test_v2_has_final_hadamard_layer_and_v1_does_not(self):
        v2 = audit(generate(GenSpec(3, 4, 12, "v2", seed=5)))
        v1 = audit(generate(GenSpec(3, 4, 12, "v1", seed=5)))
        assert v2.has_final_h
        assert not v1.has_final_h

    def test_v2_never_places_t_right_after_cz(self):
        for seed in range(10):
            circ = generate(GenSpec(4, 4, 20, "v2", seed=seed))
            cz_touch = {
                (g.cycle, q) for g in circ.gates if len(g.qubits) == 2 for q in g.qubits
            }
            for g in circ.gates:
                if g.kind is GateKind.T:
                    assert (g.cycle - 1, g.qubits[0]) not in cz_touch

    def test_v2_audit_shows_no_cz_t_cz_runs(self):
        for seed in range(10):
            rep = audit(generate(GenSpec(4, 4, 20, "v2", seed=seed)))
            assert rep.czt_runs == 0
            assert rep.repeat_violations == 0

    def test_v1_keeps_cz_t_cz_runs(self):
        for seed in range(10):
            rep = audit(generate(GenSpec(4, 4, 16, "v1", seed=seed)))
            assert rep.czt_runs > 0

    def test_no_single_qubit_gate_repeats(self):
        for version in ("v1", "v2"):
            rep = audit(generate(GenSpec(3, 5, 18, version, seed=2)))
            assert rep.repeat_violations == 0

    def test_hand_written_repeat_is_counted(self):
        # t then t on qubit 0; the H layers and the t on qubit 1 repeat nothing
        circ = parse_circuit("2\n0 h 0\n0 h 1\n1 t 0\n1 t 1\n2 t 0\n3 h 0\n3 h 1\n")
        assert audit(circ).repeat_violations == 1


class TestCounts:
    def test_5x6_depth26_totals(self):
        rep = audit(generate(GenSpec(5, 6, 26, "v2", seed=0)))
        assert rep.total_gates == 524
        assert rep.two_qubit_count == 161

    def test_7x6_depth25_totals(self):
        rep = audit(generate(GenSpec(7, 6, 25, "v2", seed=0)))
        assert rep.total_gates == 711
        assert rep.t_count == 157
        assert rep.two_qubit_count == 224

    def test_counts_seed_independent(self):
        base = audit(generate(GenSpec(5, 6, 26, "v2", seed=0)))
        for seed in (1, 2, 9):
            rep = audit(generate(GenSpec(5, 6, 26, "v2", seed=seed)))
            assert (rep.total_gates, rep.t_count, rep.two_qubit_count) == (
                base.total_gates,
                base.t_count,
                base.two_qubit_count,
            )

    def test_audit_counts_match_gate_list(self):
        circ = generate(GenSpec(3, 4, 14, "v2", seed=8))
        rep = audit(circ)
        assert rep.total_gates == len(circ.gates)
        assert rep.t_count == sum(1 for g in circ.gates if g.kind is GateKind.T)
        assert rep.two_qubit_count == sum(1 for g in circ.gates if len(g.qubits) == 2)
        assert rep.n_cycles == circ.n_cycles
        assert rep.path_space == 1 << rep.cross_gates

    def test_audit_report_dict_round_trip(self):
        rep = audit(generate(GenSpec(3, 3, 10, "v2", seed=0)))
        d = rep.as_dict()
        assert d["n_qubits"] == 9
        assert d["block_sizes"] == list(rep.block_sizes) or d["block_sizes"] == rep.block_sizes


class TestDeterminism:
    def test_same_spec_same_circuit(self):
        a = generate(GenSpec(4, 4, 16, "v2", seed=3))
        b = generate(GenSpec(4, 4, 16, "v2", seed=3))
        assert serialize_circuit(a) == serialize_circuit(b)

    def test_seed_changes_fill_not_layout(self):
        a = generate(GenSpec(4, 4, 16, "v2", seed=3))
        b = generate(GenSpec(4, 4, 16, "v2", seed=4))
        assert serialize_circuit(a) != serialize_circuit(b)
        assert two_qubit_pairs_by_cycle(a) == two_qubit_pairs_by_cycle(b)

    def test_generation_leaves_global_rng_alone(self):
        np.random.seed(1234)
        expect = np.random.random()
        np.random.seed(1234)
        generate(GenSpec(3, 4, 12, "v2", seed=0))
        assert np.random.random() == expect


# circuit_hash of GenSpec(rows, cols, 40, version, seed=0): a change in how the
# generator draws fills would silently change every stored instance
_LINE_GRID_HASHES = {
    (1, 2, "v1"): "9ea54827520646fc",
    (1, 2, "v2"): "a2676906435e72a1",
    (1, 3, "v1"): "cb3e8c02ae97c32c",
    (1, 3, "v2"): "2a8a2fe3c4677310",
}


class TestLineGrids:
    """1xN grids leave most two-qubit layers empty, so cycles can starve."""

    @pytest.mark.parametrize("rows,cols,version", list(_LINE_GRID_HASHES))
    def test_starved_cycles_fill_every_qubit(self, rows, cols, version):
        circ = generate(GenSpec(rows, cols, 40, version, seed=0))
        assert circuit_hash(circ) == _LINE_GRID_HASHES[rows, cols, version]
        n = rows * cols
        by_cycle = {}
        for g in circ.gates:
            by_cycle.setdefault(g.cycle, []).append(g)
        assert sorted(by_cycle) == list(range(circ.n_cycles))
        layers = layer_schedule(rows, cols, version)
        fills = {GateKind.T, GateKind.X_HALF, GateKind.Y_HALF}
        starved = 0
        for cycle in range(1, 41):
            before = {g.qubits[0]: g.kind for g in by_cycle[cycle - 1] if len(g.qubits) == 1}
            woken = any(len(g.qubits) == 2 for g in by_cycle[cycle - 1])
            if version == "v2":  # a qubit whose last gate was not a T takes a fill
                woken = woken or any(before.get(q, GateKind.T) is not GateKind.T for q in range(n))
            if layers[(cycle - 1) % 8] or woken:
                continue
            starved += 1
            gates = by_cycle[cycle]
            assert sorted(g.qubits for g in gates) == [(q,) for q in range(n)]
            assert all(g.kind in fills for g in gates)
        assert starved > 0


class TestSpecValidation:
    def test_rejects_tiny_grid(self):
        with pytest.raises(CircuitError):
            GenSpec(1, 1, 8, "v2")

    def test_rejects_bad_depth(self):
        with pytest.raises(CircuitError):
            GenSpec(3, 3, 0, "v2")

    def test_rejects_unknown_version(self):
        with pytest.raises(CircuitError):
            GenSpec(3, 3, 8, "v3")

    def test_rejects_non_entangling_two_qubit(self):
        with pytest.raises(CircuitError):
            GenSpec(3, 3, 8, "v2", two_qubit=GateKind.H)

    def test_filename_uses_total_cycle_label(self):
        assert instance_filename(GenSpec(7, 7, 40, "v1", seed=0)) == "inst_7x7_41_0.txt"
