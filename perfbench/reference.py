"""Plain complex128 replays that the benchmark checks gridsim against.

Nothing here calls a gridsim engine: gates come from `gate_matrix` (the
gate set's definition) and `gate_block` (which side of a cut a gate is on),
and every amplitude is computed gate by gate on dense complex128 arrays.

Arrays have shape (rows, 2**n). The full state vector is the rows=1 case;
the truncated path sum carries one row per retained prefix through the
block-local part of the circuit. Qubit j of an n-qubit array is bit n-1-j
of the index, as in gridsim.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # run as a script: use the gridsim of this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from gridsim.circuit import Circuit, GateKind, gate_block, gate_matrix


def _view1(arr: np.ndarray, n: int, q: int) -> np.ndarray:
    return arr.reshape(arr.shape[0], 1 << q, 2, 1 << (n - 1 - q))


def apply_1q(arr: np.ndarray, n: int, q: int, u: np.ndarray) -> None:
    v = _view1(arr, n, q)
    if u[0, 1] == 0 and u[1, 0] == 0:
        if u[0, 0] != 1:
            v[:, :, 0, :] *= u[0, 0]
        if u[1, 1] != 1:
            v[:, :, 1, :] *= u[1, 1]
        return
    a = v[:, :, 0, :].copy()
    b = v[:, :, 1, :]
    v[:, :, 0, :] = u[0, 0] * a + u[0, 1] * b
    v[:, :, 1, :] = u[1, 0] * a + u[1, 1] * b


def apply_2q(arr: np.ndarray, n: int, q1: int, q2: int, u: np.ndarray) -> None:
    """u is indexed |q1 q2>; q1 and q2 may come in either order."""
    m = u.reshape(2, 2, 2, 2)
    if q1 > q2:
        m = m.transpose(1, 0, 3, 2)
        q1, q2 = q2, q1
    v = arr.reshape(arr.shape[0], 1 << q1, 2, 1 << (q2 - q1 - 1), 2, 1 << (n - 1 - q2))
    if np.count_nonzero(m.reshape(4, 4) - np.diag(np.diag(m.reshape(4, 4)))) == 0:
        for i in (0, 1):
            for j in (0, 1):
                if m[i, j, i, j] != 1:
                    v[:, :, i, :, j, :] *= m[i, j, i, j]
        return
    old = v.copy()
    for i in (0, 1):
        for j in (0, 1):
            v[:, :, i, :, j, :] = sum(
                m[i, j, k, l] * old[:, :, k, :, l, :] for k in (0, 1) for l in (0, 1)
            )


def _apply_gate(arr: np.ndarray, n: int, local: dict, gate) -> None:
    u = gate_matrix(gate)
    if len(gate.qubits) == 1:
        apply_1q(arr, n, local[gate.qubits[0]], u)
    else:
        apply_2q(arr, n, local[gate.qubits[0]], local[gate.qubits[1]], u)


def _ordered(circuit: Circuit) -> list:
    return sorted(circuit.gates, key=lambda g: g.cycle)


def replay_state(circuit: Circuit) -> np.ndarray:
    """Full complex128 state vector of the circuit."""
    n = circuit.n_qubits
    state = np.zeros((1, 1 << n), dtype=np.complex128)
    state[0, 0] = 1.0
    local = {q: q for q in range(n)}
    for g in _ordered(circuit):
        _apply_gate(state, n, local, g)
    return state[0]


def truncated_amplitudes(circuit: Circuit, cut, x_p: int, prefixes, indices) -> np.ndarray:
    """Amplitudes of the path sum restricted to the given CZ prefixes.

    A prefix fixes one term of each of the first x_p cross gates: digit 0
    keeps |0> on the gate's first qubit, digit 1 keeps |1> there and puts a
    Z on its second qubit (CZ = P0 x I + P1 x Z). The prefix digits are the
    big-endian binary digits of the prefix id. Every later gate is summed
    over all its terms, which is the gate itself; so the retained block
    states are summed into one joint state and the rest of the circuit is
    replayed on it exactly.
    """
    n = circuit.n_qubits
    gates = _ordered(circuit)
    cross = [i for i, g in enumerate(gates) if len(g.qubits) == 2 and gate_block(g, cut) == "cross"]
    if any(gates[i].kind is not GateKind.CZ for i in cross[:x_p]):
        raise ValueError("the truncated replay handles CZ cross gates only")
    split = cross[x_p] if x_p < len(cross) else len(gates)
    prefixes = np.asarray(prefixes, dtype=np.int64)
    blocks = [tuple(cut.block_a), tuple(cut.block_b)]
    side_of = {q: s for s, blk in enumerate(blocks) for q in blk}
    local = {q: j for blk in blocks for j, q in enumerate(blk)}
    sizes = [len(b) for b in blocks]
    arrs = [np.zeros((prefixes.size, 1 << nb), dtype=np.complex128) for nb in sizes]
    for arr in arrs:
        arr[:, 0] = 1.0
    k = 0
    for g in gates[:split]:
        sides = {side_of[q] for q in g.qubits}
        if len(sides) == 1:
            s = sides.pop()
            _apply_gate(arrs[s], sizes[s], local, g)
            continue
        digit = (prefixes >> (x_p - 1 - k)) & 1
        k += 1
        first, second = g.qubits
        v = _view1(arrs[side_of[first]], sizes[side_of[first]], local[first])
        v[digit == 0, :, 1, :] = 0
        v[digit == 1, :, 0, :] = 0
        w = _view1(arrs[side_of[second]], sizes[side_of[second]], local[second])
        w[digit == 1, :, 1, :] *= -1
    joint = arrs[0].T @ arrs[1]
    order = np.argsort(np.array(blocks[0] + blocks[1]))
    state = joint.reshape((2,) * n).transpose(order).reshape(1, -1).copy()
    ident = {q: q for q in range(n)}
    for g in gates[split:]:
        _apply_gate(state, n, ident, g)
    return state[0][np.asarray(indices, dtype=np.int64)]


def write_exact_reference(path) -> None:
    """Replay the exact workload's circuit and keep its amplitudes on a
    fixed index subset (about 10 s at 21 qubits)."""
    import json

    from gridsim import GenSpec, generate
    from gridsim.circuit import circuit_hash
    from worker import Exact

    circuit = generate(GenSpec(Exact.ROWS, Exact.COLS, Exact.DEPTH, seed=Exact.CIRCUIT_SEED))
    indices = np.sort(np.random.default_rng(1807_10749).choice(1 << circuit.n_qubits, 64, replace=False))
    amps = replay_state(circuit)[indices]
    record = {
        "circuit_hash": circuit_hash(circuit),
        "made_by": "python3 perfbench/reference.py",
        "indices": indices.tolist(),
        "re": [float(a.real) for a in amps],
        "im": [float(a.imag) for a in amps],
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    write_exact_reference(Path(__file__).resolve().parent / "exact_reference.json")
