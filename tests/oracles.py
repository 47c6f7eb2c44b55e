"""Brute-force reference implementations the test suite checks against.

Everything here is deliberately naive: full complex128 state vectors,
one gate at a time, no clustering, no blocking. Slow but obviously
correct, which is the whole point.
"""
import numpy as np

from gridsim.circuit import Circuit, gate_matrix


def naive_state(circuit: Circuit) -> np.ndarray:
    """Replay a circuit gate by gate on a dense complex128 state.

    Qubit q lives on tensor axis q, so basis index bit (n-1-q) belongs to
    qubit q, matching the packed layout used everywhere else.  Each gate
    writes the next state into the other of two preallocated buffers.
    """
    n = circuit.n_qubits
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    spare = np.empty_like(state)
    for gate in sorted(circuit.gates, key=lambda g: g.cycle):
        mat = gate_matrix(gate)
        if len(gate.qubits) == 1:
            _apply_1q(state, mat, gate.qubits[0], n, spare)
        else:
            _apply_2q(state, mat, gate.qubits[0], gate.qubits[1], n, spare)
        state, spare = spare, state
    return state


def _apply_1q(state: np.ndarray, mat: np.ndarray, q: int, n: int, out: np.ndarray) -> None:
    shaped = state.reshape(1 << q, 2, 1 << (n - q - 1))
    np.einsum("ab,ibj->iaj", mat, shaped, out=out.reshape(shaped.shape))


def _apply_2q(
    state: np.ndarray, mat: np.ndarray, q1: int, q2: int, n: int, out: np.ndarray
) -> None:
    if q1 > q2:
        # reorder qubits so the reshape below is valid; the matrix rows and
        # columns swap in tandem (bit pairs (a,c) and (b,d) both flip)
        mat = mat.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        q1, q2 = q2, q1
    shaped = state.reshape(1 << q1, 2, 1 << (q2 - q1 - 1), 2, 1 << (n - q2 - 1))
    m4 = mat.reshape(2, 2, 2, 2)
    np.einsum("acbd,ibjdk->iajck", m4, shaped, out=out.reshape(shaped.shape))


def naive_probs(circuit: Circuit) -> np.ndarray:
    amps = naive_state(circuit)
    return np.abs(amps) ** 2


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())
