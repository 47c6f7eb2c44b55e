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
    target = out.reshape(shaped.shape)
    # einsum loops over runs of 2 or 4 amplitudes ran up to 4x slower than
    # one column at a time at 23 qubits; runs of 8 or more ran slower split
    columns = range(shaped.shape[2]) if shaped.shape[2] < 8 else [slice(None)]
    for c in columns:
        np.einsum("ab,ib...->ia...", mat, shaped[..., c], out=target[..., c])


def _apply_2q(
    state: np.ndarray, mat: np.ndarray, q1: int, q2: int, n: int, out: np.ndarray
) -> None:
    if q1 > q2:
        # reorder qubits so the reshape below is valid; the matrix rows and
        # columns swap in tandem (bit pairs (a,c) and (b,d) both flip)
        mat = mat.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        q1, q2 = q2, q1
    shaped = state.reshape(1 << q1, 2, 1 << (q2 - q1 - 1), 2, 1 << (n - q2 - 1))
    target = out.reshape(shaped.shape)
    m4 = mat.reshape(2, 2, 2, 2)
    # tensordot (one gemm) beat einsum's loop by 1.4x over a 24-qubit circuit;
    # above 2^20 amplitudes it runs on at most 1/16 of the state at a time,
    # along its longest free axis, so its temporaries stay small
    axis = max((0, 2, 4), key=lambda a: shaped.shape[a])
    step = max(1, shaped.shape[axis] // min(16, max(1, state.size >> 20)))
    for s in range(0, shaped.shape[axis], step):
        part = (slice(None),) * axis + (slice(s, s + step),)
        new = np.tensordot(m4, shaped[part], axes=([2, 3], [1, 3]))  # axes a c i j k
        target[part] = np.moveaxis(new, (0, 1), (1, 3))


def naive_probs(circuit: Circuit) -> np.ndarray:
    amps = naive_state(circuit)
    return np.abs(amps) ** 2


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())
