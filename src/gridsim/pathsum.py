"""Hybrid path-sum engine: cut the grid into two blocks, expand every
cross gate into a sum of one-qubit operator pairs, and accumulate
requested amplitudes over paths.

A path assigns one decomposition term to each cross gate; its digits form
a mixed-radix number ordered by cycle.  The first x_p digits are the
prefix, the rest the branch.  A prefix job simulates both blocks up to
the first branch gate, snapshots them once, and replays the snapshot for
every branch completion.  Fidelity-controlled truncation keeps a seeded
uniform subset of prefixes: retaining a fraction f of the path space
yields a state whose squared norm, and whose fidelity against the exact
state, are both close to f for chaotic circuits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    Circuit,
    CircuitError,
    Cut,
    Gate,
    GateKind,
    choose_cut,
    gate_block,
    gate_matrix,
)
from .statevec import (
    ACC_DTYPE,
    AmplitudeBatch,
    DTYPE,
    _b_diag1,
    _b_mat1,
    _one_qubit_op,
    apply_op,
    lower_gate,
)

_P0 = np.diag([1.0, 0.0]).astype(np.complex128)
_P1 = np.diag([0.0, 1.0]).astype(np.complex128)
_Z = np.diag([1.0, -1.0]).astype(np.complex128)
_I2 = np.eye(2, dtype=np.complex128)
_RAISE = np.array([[0, 1], [0, 0]], dtype=np.complex128)  # |0><1|
_LOWER = np.array([[0, 0], [1, 0]], dtype=np.complex128)  # |1><0|

_SVD_TOL = 1e-7  # relative singular-value cutoff for generic gates


@dataclass
class TermDecomposition:
    """Sum-of-products form of a two-qubit gate: U = sum_k kron(L_k, R_k)."""

    kind: GateKind
    terms: list[tuple[np.ndarray, np.ndarray]]

    @property
    def rank(self) -> int:
        return len(self.terms)


def _dual_reshuffle(u: np.ndarray) -> np.ndarray:
    # Regroup U[(i1,i2),(j1,j2)] as R[(i1,j1),(i2,j2)] so factors split by SVD.
    return u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def _svd_terms(u: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    m = _dual_reshuffle(np.asarray(u, dtype=np.complex128))
    left, s, right = np.linalg.svd(m)
    keep = s > _SVD_TOL * s[0]
    terms = []
    for k in np.flatnonzero(keep):
        w = math.sqrt(s[k])
        terms.append((w * left[:, k].reshape(2, 2), w * right[k, :].reshape(2, 2)))
    # Descending singular value; break exact ties lexicographically.
    def key(item):
        i, (l, r) = item
        ents = np.concatenate([l.ravel(), r.ravel()])
        return (-round(s[np.flatnonzero(keep)[i]], 12),) + tuple(
            (round(v.real, 12), round(v.imag, 12)) for v in ents
        )

    terms = [t for _, t in sorted(enumerate(terms), key=key)]
    return terms


def schmidt_decompose(gate: Gate | GateKind | np.ndarray) -> TermDecomposition:
    """Operator decomposition of a two-qubit gate.

    CZ and ISWAP return fixed projector forms (rank 2 and 4) whose terms
    zero out known amplitude blocks; anything else goes through the SVD
    of the index-reshuffled matrix.
    """
    kind = None
    matrix = None
    if isinstance(gate, Gate):
        kind = gate.kind
        matrix = gate_matrix(gate)
    elif isinstance(gate, GateKind):
        kind = gate
    else:
        matrix = np.asarray(gate, dtype=np.complex128)
        if matrix.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {matrix.shape}")
    if kind is GateKind.CZ:
        return TermDecomposition(kind, [(_P0, _I2), (_P1, _Z)])
    if kind is GateKind.ISWAP:
        return TermDecomposition(
            kind,
            [(_P0, _P0), (_P1, _P1), (1j * _RAISE, _LOWER), (1j * _LOWER, _RAISE)],
        )
    if matrix is None:
        matrix = gate_matrix(Gate(0, kind, (0, 1)))
    return TermDecomposition(kind or GateKind.GENERIC_2Q, _svd_terms(matrix))


def split_requests(
    n_qubits: int, block_a: tuple[int, ...], block_b: tuple[int, ...], indices
) -> tuple[np.ndarray, np.ndarray]:
    """Map global basis indices to per-block local indices.

    Block-local bit order follows ascending global qubit order, so for a
    horizontal cut block_a simply holds the high-order bits.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if len(idx) and (idx.min() < 0 or idx.max() >= (1 << n_qubits)):
        raise IndexError("request index outside the state space")
    out = []
    for block in (block_a, block_b):
        local = np.zeros(len(idx), dtype=np.int64)
        nb = len(block)
        for j, q in enumerate(block):
            local |= ((idx >> (n_qubits - 1 - q)) & 1) << (nb - 1 - j)
        out.append(local)
    return out[0], out[1]


# Lowered ops are statevec's block-local encodings (blk 0 is block a, 1 is
# block b) plus ("cross", k) for cross gate k.
def _lower(circuit: Circuit, cut: Cut):
    cache = getattr(circuit, "_lowered", None)
    if cache is None:
        cache = {}
        circuit._lowered = cache
    if cut in cache:
        return cache[cut]
    lowered = _lower_uncached(circuit, cut)
    cache[cut] = lowered
    return lowered


def _lower_uncached(circuit: Circuit, cut: Cut):
    pos_a = {q: i for i, q in enumerate(cut.block_a)}
    pos_b = {q: i for i, q in enumerate(cut.block_b)}
    ops: list[tuple] = []
    cross: list[dict] = []
    for g in circuit.gates:
        side = gate_block(g, cut)
        if side == "cross":
            k = len(cross)
            q_first, q_second = g.qubits
            first_in_a = q_first in pos_a
            local_a = pos_a[q_first] if first_in_a else pos_a[q_second]
            local_b = pos_b[q_second] if first_in_a else pos_b[q_first]
            dec = schmidt_decompose(g)
            terms = []
            for l_op, r_op in dec.terms:
                op_a, op_b = (l_op, r_op) if first_in_a else (r_op, l_op)
                terms.append((_one_qubit_op(op_a, 0, local_a), _one_qubit_op(op_b, 1, local_b)))
            cross.append({"cycle": g.cycle, "terms": terms, "rank": dec.rank})
            ops.append(("cross", k))
            continue
        blk, pos = (0, pos_a) if side == "a" else (1, pos_b)
        ops.append(lower_gate(g, blk, pos))
    return ops, cross


def path_digits(path_id: int, radices: tuple[int, ...]) -> tuple[int, ...]:
    """Big-endian mixed-radix digits of a path id; digit k picks a term for cross gate k."""
    digits = []
    for base in reversed(radices):
        digits.append(path_id % base)
        path_id //= base
    if path_id:
        raise ValueError("path id outside the path space")
    return tuple(reversed(digits))


def path_id(digits, radices: tuple[int, ...]) -> int:
    value = 0
    for d, base in zip(digits, radices):
        if not 0 <= d < base:
            raise ValueError(f"digit {d} outside radix {base}")
        value = value * base + d
    return value


def _space(radices) -> int:
    out = 1
    for b in radices:
        out *= b
    return out


@dataclass
class SimPlan:
    """Everything a worker needs to recreate one truncated hybrid run."""

    cut: Cut
    fidelity: float
    radices: tuple[int, ...]
    x_p: int
    x_b: int
    d_p: int
    d_b: int
    seed: int
    retained: np.ndarray  # sorted prefix ids

    @property
    def x(self) -> int:
        return len(self.radices)

    @property
    def prefix_space(self) -> int:
        return _space(self.radices[: self.x_p])

    @property
    def branch_space(self) -> int:
        return _space(self.radices[self.x_p :])

    @property
    def path_space(self) -> int:
        return _space(self.radices)


def retained_prefixes(prefix_space: int, fidelity: float, seed: int) -> np.ndarray:
    """Seeded uniform sample of max(1, round(f * prefix_space)) distinct prefixes."""
    m = max(1, round(fidelity * prefix_space))
    if m > prefix_space:
        raise CircuitError(f"cannot retain {m} of {prefix_space} prefixes")
    rng = np.random.default_rng(seed)
    if m == prefix_space:
        return np.arange(prefix_space, dtype=np.int64)
    if m > prefix_space // 4:
        return np.sort(rng.choice(prefix_space, size=m, replace=False).astype(np.int64))
    seen: set[int] = set()
    while len(seen) < m:
        draw = rng.integers(0, prefix_space, size=m - len(seen))
        seen.update(int(v) for v in draw)
    return np.array(sorted(seen), dtype=np.int64)


def make_plan(
    circuit: Circuit,
    fidelity: float = 1.0,
    x_p: int | None = None,
    x_b: int | None = None,
    seed: int = 0,
    cut: Cut | None = None,
    workers: int = 1,
) -> SimPlan:
    """Build a SimPlan, choosing the cut and the prefix/branch split if unset.

    The default split takes the smallest branch region whose per-prefix
    work covers the checkpoint copy about 32 times over, capped so at
    least `workers` prefix jobs remain.
    """
    if not 0 < fidelity <= 1:
        raise CircuitError(f"fidelity must be in (0, 1], got {fidelity}")
    if cut is None:
        cut = choose_cut(circuit)
    cross = [g for g in circuit.gates if len(g.qubits) == 2 and gate_block(g, cut) == "cross"]
    radices = tuple(schmidt_decompose(g).rank for g in cross)
    x = len(radices)
    if x_p is None and x_b is None:
        x_b = _default_branch_digits(circuit, cut, cross, workers)
        x_p = x - x_b
    elif x_p is None:
        x_p = x - x_b
    elif x_b is None:
        x_b = x - x_p
    if x_p < 0 or x_b < 0 or x_p + x_b != x:
        raise CircuitError(f"split x_p={x_p}, x_b={x_b} incompatible with {x} cross gates")
    n_cycles = circuit.n_cycles
    d_p = cross[x_p].cycle if x_b > 0 else n_cycles
    d_b = n_cycles - d_p
    retained = retained_prefixes(_space(radices[:x_p]), fidelity, seed)
    return SimPlan(cut, fidelity, radices, x_p, x_b, d_p, d_b, seed, retained)


def _default_branch_digits(circuit, cut, cross, workers) -> int:
    x = len(cross)
    cap = x - max(0, math.ceil(math.log2(workers))) if workers > 1 else x
    cap = max(0, cap)
    copy_cost = (1 << cut.n_a) + (1 << cut.n_b)
    n_cycles = circuit.n_cycles
    for x_b in range(0, cap + 1):
        branches = _space([schmidt_decompose(g).rank for g in cross[x - x_b :]])
        d_b = n_cycles - (cross[x - x_b].cycle if x_b > 0 else n_cycles)
        work = branches * max(1, d_b) * copy_cost
        if work >= 32 * copy_cost:
            return x_b
    return cap


def run_approx(circuit: Circuit, plan: SimPlan, requests) -> AmplitudeBatch:
    """Accumulate contributions of all retained prefixes, ascending by id.

    Every retained prefix is carried through the gate sequence at once as
    a (prefixes, amplitudes) array, which keeps the per-amplitude cost
    flat from small blocks up.
    """
    return run_batched(circuit, plan, requests)


# ---------------------------------------------------------------------------
# Prefix-batched execution: amps arrays hold one row per live prefix, and
# statevec's kernels advance them; only a cross gate's term varies by row.


def _term_table(term_ops) -> tuple[int, np.ndarray, bool]:
    # per-digit operator stack for one side of one cross gate:
    # (local qubit, (rank, 2) diag stack or (rank, 2, 2) matrix stack, is_diag)
    q = term_ops[0][2]
    if all(t[0] == "diag1" for t in term_ops):
        return q, np.stack([t[3] for t in term_ops]).astype(DTYPE), True
    mats = [np.diag(t[3]) if t[0] == "diag1" else t[3] for t in term_ops]
    return q, np.stack(mats).astype(DTYPE), False


def _cross_tables(entry: dict):
    cached = entry.get("batched")
    if cached is None:
        cached = (
            _term_table([t[0] for t in entry["terms"]]),
            _term_table([t[1] for t in entry["terms"]]),
        )
        entry["batched"] = cached
    return cached


def _exec_ops_batched(ops, blocks, n_blk, digits, cross) -> None:
    """Run lowered ops on (rows, amps) arrays; digits maps cross index ->
    scalar term digit or a per-row digit column."""
    for op in ops:
        if op[0] != "cross":
            apply_op(op, blocks, n_blk)
        else:
            dk = digits[op[1]]
            for blk, (q, table, diag) in zip((0, 1), _cross_tables(cross[op[1]])):
                sel = table[dk]
                if diag:
                    _b_diag1(blocks[blk], n_blk[blk], q, sel)
                else:
                    _b_mat1(blocks[blk], n_blk[blk], q, sel)


def _digit_columns(prefixes: np.ndarray, radices) -> dict:
    cols = {}
    ids = prefixes.astype(np.int64).copy()
    for k in range(len(radices) - 1, -1, -1):
        cols[k] = ids % radices[k]
        ids //= radices[k]
    if np.any(ids):
        raise ValueError("prefix id outside the prefix space")
    return cols


_ROW_BYTES_CAP = 1 << 27  # live batched rows capped near 128 MB


def run_batched(
    circuit: Circuit,
    plan: SimPlan,
    requests,
    prefixes=None,
) -> AmplitudeBatch:
    """Sum over every path through `prefixes` (default: the retained ones).

    Each chunk of prefixes advances as two (rows, 2^q) arrays; cross-gate
    digits select per-row one-qubit operators. A chunk runs up to the
    first branch gate once and every branch completion replays that
    checkpoint, so prefixes=[p] is the work of one campaign job. When the
    request set covers
    most of the joint space the two blocks are contracted with a matrix
    product instead of per-request gathers.
    """
    cut = plan.cut
    ops, cross = _lower(circuit, cut)
    x_p = plan.x_p
    marker = ("cross", x_p)
    split_at = next((i for i, op in enumerate(ops) if op == marker), len(ops))
    if prefixes is None:
        prefixes = plan.retained
    prefixes = np.asarray(prefixes, dtype=np.int64)
    idx_a, idx_b = split_requests(circuit.n_qubits, cut.block_a, cut.block_b, requests)
    na, nb = 1 << cut.n_a, 1 << cut.n_b
    n_req = idx_a.size
    use_joint = n_req * 4 >= na * nb and na * nb <= (1 << 24)
    joint = np.zeros((na, nb), dtype=ACC_DTYPE) if use_joint else None
    acc = None if use_joint else np.zeros(n_req, dtype=ACC_DTYPE)
    row_cap = max(1, _ROW_BYTES_CAP // (8 * (na + nb)))
    n_blk = (cut.n_a, cut.n_b)
    branch_radices = plan.radices[x_p:]

    def land(blocks):
        if use_joint:
            joint[:, :] += blocks[0].T @ blocks[1]
            return
        step = max(1, (1 << 22) // max(1, n_req))
        for s in range(0, blocks[0].shape[0], step):
            ga = blocks[0][s : s + step][:, idx_a]
            gb = blocks[1][s : s + step][:, idx_b]
            acc[:] += np.einsum("pi,pi->i", ga, gb, dtype=ACC_DTYPE)

    for start in range(0, prefixes.size, row_cap):
        chunk = prefixes[start : start + row_cap]
        digits = _digit_columns(chunk, plan.radices[:x_p])
        blocks = [
            np.zeros((chunk.size, na), dtype=DTYPE),
            np.zeros((chunk.size, nb), dtype=DTYPE),
        ]
        blocks[0][:, 0] = 1.0
        blocks[1][:, 0] = 1.0
        _exec_ops_batched(ops[:split_at], blocks, n_blk, digits, cross)
        if plan.x_b == 0:
            land(blocks)
            continue
        checkpoint = [blocks[0].copy(), blocks[1].copy()]
        for branch in range(plan.branch_space):
            work = blocks if branch == 0 else [c.copy() for c in checkpoint]
            for k, d in enumerate(path_digits(branch, branch_radices)):
                digits[x_p + k] = d
            _exec_ops_batched(ops[split_at:], work, n_blk, digits, cross)
            land(work)

    out = AmplitudeBatch.zeros(requests)
    out.amps[:] = joint[idx_a, idx_b] if use_joint else acc
    return out


def estimate_fidelity(reference: AmplitudeBatch, candidate: AmplitudeBatch) -> float:
    """Overlap-based fidelity estimate from two amplitude batches.

    f_e = |sum conj(r_i) c_i|^2 / (sum |r_i|^2 * sum |c_i|^2), evaluated
    over a shared index set.
    """
    if len(reference.indices) == 0:
        raise ValueError("empty amplitude batch")
    if not np.array_equal(reference.indices, candidate.indices):
        raise ValueError("fidelity estimate needs matching index sets")
    r = reference.amps.astype(ACC_DTYPE)
    c = candidate.amps.astype(ACC_DTYPE)
    rr = float(np.vdot(r, r).real)
    cc = float(np.vdot(c, c).real)
    if rr == 0 or cc == 0:
        raise ValueError("zero-norm batch in fidelity estimate")
    return float(abs(np.vdot(r, c)) ** 2 / (rr * cc))
