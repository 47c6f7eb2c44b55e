"""Hybrid path-sum engine: cut the grid into two blocks, expand every
cross gate into a sum of one-qubit operator pairs, and accumulate
requested amplitudes over paths.

A path assigns one decomposition term to each cross gate; its digits form
a mixed-radix number ordered by cycle.  The first x_p digits are the
prefix, the rest the branch.  Prefixes run in near-equal row tiles sized
to statevec's slice budget: a tile simulates both blocks up to the first
branch gate, every branch completion but the last works on one spare copy
of that tile, refilled per branch, and the last works on the tile itself.
Tiles run on one thread per CPU of the process, at most two at a time;
each lands its branches into its own partial sum, and the partials are
added in tile order, so amplitudes do not depend on the thread count.  A
call with one tile or a joint-matrix landing stays on the calling thread,
and so does a per-prefix call (a campaign worker's tile of jobs), which
lands each prefix into its own row.  Fidelity-controlled truncation keeps
a seeded uniform subset of prefixes: retaining a fraction f of the path
space yields a state whose squared norm, and whose fidelity against the
exact state, are both close to f for chaotic circuits.

`seeded_subset` is the one selector of seeded distinct ids: it picks the
retained prefixes here and the verifier's challenge indices in validate.
"""
from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .circuit import (
    Circuit,
    CircuitError,
    Cut,
    Gate,
    GateKind,
    choose_cut,
    cross_gates,
    gate_block,
    gate_matrix,
)
from . import statevec
from .statevec import ACC_DTYPE, AmplitudeBatch, DTYPE, apply_op, lower_gate, one_qubit_op

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
    if isinstance(gate, GateKind):
        gate = Gate(0, gate, (0, 1))
    if isinstance(gate, Gate):
        if gate.kind is GateKind.CZ:
            return TermDecomposition([(_P0, _I2), (_P1, _Z)])
        if gate.kind is GateKind.ISWAP:
            return TermDecomposition(
                [(_P0, _P0), (_P1, _P1), (1j * _RAISE, _LOWER), (1j * _LOWER, _RAISE)]
            )
        matrix = gate_matrix(gate)
    else:
        matrix = np.asarray(gate, dtype=np.complex128)
        if matrix.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {matrix.shape}")
    return TermDecomposition(_svd_terms(matrix))


def split_requests(
    n_qubits: int, block_a: tuple[int, ...], block_b: tuple[int, ...], indices
) -> tuple[np.ndarray, np.ndarray]:
    """Map global basis indices to per-block local indices.

    Block-local bit order follows ascending global qubit order, so for a
    horizontal cut block_a simply holds the high-order bits.
    """
    idx = statevec.basis_indices(indices, n_qubits)
    out = []
    for block in (block_a, block_b):
        local = np.zeros(len(idx), dtype=np.int64)
        nb = len(block)
        for j, q in enumerate(block):
            local |= ((idx >> (n_qubits - 1 - q)) & 1) << (nb - 1 - j)
        out.append(local)
    return out[0], out[1]


# Lowered ops are statevec's block-local encodings (blk 0 is block a, 1 is
# block b), and ("cross", k, op_a, op_b) for cross gate k: its one-qubit ops
# on blocks a and b, each holding the per-digit stack of its terms.
def _lower(circuit: Circuit, cut: Cut):
    cache = circuit.__dict__.setdefault("_lowered", {})
    if cut in cache:
        return cache[cut]
    pos_a = {q: i for i, q in enumerate(cut.block_a)}
    pos_b = {q: i for i, q in enumerate(cut.block_b)}
    ops: list[tuple] = []
    n_cross = 0
    for g in circuit.gates:
        side = gate_block(g, cut)
        if side == "cross":
            q_a, q_b = g.qubits
            stack_a, stack_b = (np.stack(m) for m in zip(*schmidt_decompose(g).terms))
            if q_a not in pos_a:
                q_a, q_b, stack_a, stack_b = q_b, q_a, stack_b, stack_a
            op_a = one_qubit_op(stack_a, 0, pos_a[q_a])
            ops.append(("cross", n_cross, op_a, one_qubit_op(stack_b, 1, pos_b[q_b])))
            n_cross += 1
            continue
        blk, pos = (0, pos_a) if side == "a" else (1, pos_b)
        ops.append(lower_gate(g, blk, pos))
    cache[cut] = ops
    return ops


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
        return math.prod(self.radices[: self.x_p])

    @property
    def branch_space(self) -> int:
        return math.prod(self.radices[self.x_p :])

    @property
    def path_space(self) -> int:
        return math.prod(self.radices)

    @property
    def retained_fraction(self) -> float:
        """Retained prefixes over the prefix space: the fidelity the plan
        realizes, f up to half a retention step."""
        return len(self.retained) / self.prefix_space


_ID_LIMIT = 1 << 63  # ids are int64, so a space holds at most 2^63 of them


def seeded_subset(space: int, m: int, seed: int) -> np.ndarray:
    """The m distinct ids of [0, space) that `seed` picks, sorted.

    All of them when m == space; numpy's permutation sampler above a
    quarter of the space; otherwise uniform draws, redrawing the shortfall
    until m distinct ids are kept.
    """
    rng = np.random.default_rng(seed)
    if m == space:
        return np.arange(space, dtype=np.int64)
    if m > space // 4:
        return np.sort(rng.choice(space, size=m, replace=False).astype(np.int64))
    kept = np.empty(0, dtype=np.int64)
    while kept.size < m:
        ids = np.concatenate([kept, rng.integers(0, space, size=m - kept.size)])
        ids.sort()
        kept = ids[np.concatenate(([True], ids[1:] != ids[:-1]))]
    return kept


def retained_prefixes(prefix_space: int, fidelity: float, seed: int) -> np.ndarray:
    """Seeded uniform sample of max(1, round(f * prefix_space)) distinct prefixes."""
    if prefix_space > _ID_LIMIT:
        raise CircuitError(
            f"prefix space {prefix_space} exceeds the int64 id limit 2^63; "
            "choose a split with fewer prefix digits"
        )
    m = max(1, round(fidelity * prefix_space))
    if m > prefix_space:
        raise CircuitError(f"cannot retain {m} of {prefix_space} prefixes")
    return seeded_subset(prefix_space, m, seed)


def make_plan(
    circuit: Circuit,
    fidelity: float = 1.0,
    x_p: int | None = None,
    x_b: int | None = None,
    seed: int = 0,
    cut: Cut | None = None,
) -> SimPlan:
    """Build a SimPlan, choosing the cut and the prefix/branch split if unset.

    The plan depends only on its arguments, so every process that plans
    the same circuit with the same settings gets the same jobs. The
    default split takes the smallest branch region whose per-prefix work
    covers the per-branch copy of its blocks about 32 times over.
    """
    if not 0 < fidelity <= 1:
        raise CircuitError(f"fidelity must be in (0, 1], got {fidelity}")
    if cut is None:
        cut = choose_cut(circuit)
    cross = cross_gates(circuit, cut)
    radices = tuple(schmidt_decompose(g).rank for g in cross)
    x = len(radices)
    if x_p is None and x_b is None:
        x_b = _default_branch_digits(circuit.n_cycles, cross, radices)
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
    retained = retained_prefixes(math.prod(radices[:x_p]), fidelity, seed)
    return SimPlan(cut, fidelity, radices, x_p, x_b, d_p, d_b, seed, retained)


def _default_branch_digits(n_cycles, cross, radices) -> int:
    # a cycle of gates costs about one copy of the blocks, so a prefix's
    # branch work is branches * d_b copies; take the least x_b reaching 32
    x = len(cross)
    for x_b in range(0, x + 1):
        d_b = n_cycles - (cross[x - x_b].cycle if x_b > 0 else n_cycles)
        if math.prod(radices[x - x_b :]) * max(1, d_b) >= 32:
            return x_b
    return x


# ---------------------------------------------------------------------------
# Prefix-batched execution: amps arrays hold one row per live prefix, and
# statevec's kernels advance them; only a cross gate's term varies by row.


def _exec_ops_batched(ops, blocks, n_blk, digits) -> None:
    """Run lowered ops on (rows, amps) arrays; digits[k], a scalar term digit
    or a per-row digit column, picks from the stacks of ("cross", k, op_a, op_b)."""
    for op in ops:
        if op[0] != "cross":
            apply_op(op, blocks, n_blk)
            continue
        dk = digits[op[1]]
        for kind, blk, q, stack in op[2:]:
            apply_op((kind, blk, q, stack[dk]), blocks, n_blk)


def _digit_columns(ids: np.ndarray, radices) -> dict:
    """Big-endian mixed-radix digits of ids: column k picks a term for cross gate k."""
    cols = {}
    ids = ids.astype(np.int64)
    for k in range(len(radices) - 1, -1, -1):
        cols[k] = ids % radices[k]
        ids //= radices[k]
    if np.any(ids):
        raise ValueError("id outside the mixed-radix space")
    return cols


# Row tiles run on one thread per CPU the process may use, but at most
# _TILES_AT_ONCE at a time, whatever the CPU count: each running tile holds
# its own working set, and more of them would need smaller tiles, which would
# tie the split, and so the sums, to the thread count.
_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_TILES_AT_ONCE = 2


def prefix_tile(plan: SimPlan, n_req: int) -> int:
    """Prefixes per row tile of a per-prefix call: both block rows of a
    prefix and its complex128 output row fit statevec's slice budget, split
    among its branches, so a tile's size does not depend on how many
    prefixes a call holds."""
    row = np.dtype(DTYPE).itemsize * ((1 << plan.cut.n_a) + (1 << plan.cut.n_b))
    row += np.dtype(ACC_DTYPE).itemsize * n_req
    return max(1, statevec._SLICE_BYTES // row // plan.branch_space)


def run_batched(
    circuit: Circuit,
    plan: SimPlan,
    requests,
    prefixes=None,
    per_prefix: bool = False,
) -> AmplitudeBatch | list[AmplitudeBatch]:
    """Sum over every path through `prefixes` (default: the retained ones).

    Prefixes advance in near-equal row tiles, two (rows, 2^q) arrays sized
    so that both fit statevec's slice budget; cross-gate digits select
    per-row one-qubit operators. A tile runs up to the first branch gate
    once; each branch completion but the last runs on one spare copy of
    it, refilled per branch, the last (the only one when x_b == 0) on the
    tile itself. Each tile lands its branches into its own partial sum,
    added in tile order, so amplitudes do not depend on the thread count.
    Tiles run on one thread per CPU, at most _TILES_AT_ONCE at a time and
    one more queued, so a call holds a few tiles' working sets whatever
    the CPU count. A call with one tile stays on its thread, and so does a
    joint landing (requests covering most of the joint space, contracted
    by one matrix product per tile): its partials are (2^n_a, 2^n_b)
    matrices. On 2 vCPUs, threads took a 4x5 10+10 cell (all 2^20
    amplitudes, 512 prefixes) from a 64 to a 116-118 MiB traced peak for
    no gain (0.36-0.44 s against 0.38-0.51 s), though c23's 4x4 cell at
    f=1/4 gained (2.5-2.9 s against 3.1-3.5 s).

    With per_prefix, the call returns one AmplitudeBatch per prefix, in
    order, each bit-identical to a call with that prefix alone: tiles of
    `prefix_tile` prefixes land every path into their own row of a
    (rows, n_req) partial, with no joint landing, on the calling thread
    (campaign workers are already one process per CPU).
    """
    cut = plan.cut
    ops = _lower(circuit, cut)
    x_p = plan.x_p
    split_at = next((i for i, o in enumerate(ops) if o[0] == "cross" and o[1] == x_p), len(ops))
    if prefixes is None:
        prefixes = plan.retained
    prefixes = np.asarray(prefixes, dtype=np.int64)
    idx_a, idx_b = split_requests(circuit.n_qubits, cut.block_a, cut.block_b, requests)
    na, nb = 1 << cut.n_a, 1 << cut.n_b
    n_req = idx_a.size
    use_joint = not per_prefix and n_req * 4 >= na * nb and na * nb <= (1 << 24)
    item = np.dtype(DTYPE).itemsize
    if per_prefix:
        tile_rows = prefix_tile(plan, n_req)
    else:
        tile_rows = max(1, statevec._SLICE_BYTES // (item * (na + nb)))
    n_tiles = max(1, -(-prefixes.size // tile_rows))
    rows = max(1, -(-prefixes.size // n_tiles))
    tiles = [prefixes[s : s + rows] for s in range(0, prefixes.size, rows)]
    n_blk = (cut.n_a, cut.n_b)
    branch_digits = _digit_columns(np.arange(plan.branch_space), plan.radices[x_p:])
    last = plan.branch_space - 1
    gather = "pi,pi->pi" if per_prefix else "pi,pi->i"

    def land(blocks, part):
        if use_joint:
            part += blocks[0].T.astype(ACC_DTYPE) @ blocks[1].astype(ACC_DTYPE)
            return
        width = max(1, statevec._SLICE_BYTES // (item * blocks[0].shape[0]))
        for s in range(0, n_req, width):
            ga = blocks[0][:, idx_a[s : s + width]]
            gb = blocks[1][:, idx_b[s : s + width]]
            part[..., s : s + width] += np.einsum(gather, ga, gb, dtype=ACC_DTYPE)

    def tile_sum(tile, part):
        digits = _digit_columns(tile, plan.radices[:x_p])
        blocks = [np.zeros((tile.size, n), dtype=DTYPE) for n in (na, nb)]
        blocks[0][:, 0] = 1.0
        blocks[1][:, 0] = 1.0
        _exec_ops_batched(ops[:split_at], blocks, n_blk, digits)
        spare = [np.empty_like(b) for b in blocks] if last else None
        for branch in range(plan.branch_space):
            work = blocks
            if branch < last:
                work = spare
                for dst, src in zip(spare, blocks):
                    np.copyto(dst, src)
            for k, col in branch_digits.items():
                digits[x_p + k] = col[branch]
            _exec_ops_batched(ops[split_at:], work, n_blk, digits)
            land(work, part)
        return part

    if per_prefix:
        parts = [tile_sum(tile, np.zeros((tile.size, n_req), dtype=ACC_DTYPE)) for tile in tiles]
        return [AmplitudeBatch(requests, row) for part in parts for row in part]
    joint = np.zeros((na, nb), dtype=ACC_DTYPE) if use_joint else None
    acc = None if use_joint else np.zeros(n_req, dtype=ACC_DTYPE)
    threads = 1 if use_joint else min(_THREADS, _TILES_AT_ONCE, len(tiles))
    if threads < 2:
        # on one thread the joint landing adds every tile straight into joint
        for tile in tiles:
            part = tile_sum(tile, joint if use_joint else np.zeros(n_req, dtype=ACC_DTYPE))
            if not use_joint:
                acc += part
    else:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(threads)
        try:
            ahead = deque()
            for tile in tiles:
                if len(ahead) > threads:
                    acc += ahead.popleft().result()
                ahead.append(pool.submit(tile_sum, tile, np.zeros(n_req, dtype=ACC_DTYPE)))
            for future in ahead:
                acc += future.result()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    return AmplitudeBatch(requests, joint[idx_a, idx_b] if use_joint else acc)


# The library name of the truncated engine: every retained prefix, summed
# ascending by id.
run_approx = run_batched


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
