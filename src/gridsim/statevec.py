"""Dense state-vector engine: single-precision amplitudes, the gate kernels
both engines run, and amplitude files.

Amplitudes are kept in complex64; norms and amplitude accumulation use
double precision.  Gates tolerate arbitrary (including non-unitary) 2x2
operators.  The kernels act on (rows, 2^n) arrays: the path sum keeps one
row per live prefix, and the full state vector is the one-row case.
run_full splits the qubit positions into tiles of at most _TILE_QUBITS
and applies each run of gates inside one tile as a single fused matrix,
one matmul per slice of about 1 MB; only gates spanning two tiles run as
single-gate kernels.  The path sum lowers one op per gate and runs its
prefixes in row tiles of about the same size.

Amplitude files come in two forms that share a leading "# key value"
header.  Text lines ("index_hex re im" at a chosen number of significant
digits) are the interchange format of the command line.  The exact form
stores the raw little-endian int64 indices followed by the complex128
amplitudes as one base64 line, with "count" and a "sha256" of that line
in the header, so a reader can check a file without decoding it and a
round trip is bit-identical.
"""
from __future__ import annotations

import base64
import binascii
import enum
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    Circuit,
    DIAGONAL_KINDS,
    Gate,
    GateKind,
    gate_matrix,
)

DTYPE = np.complex64
ACC_DTYPE = np.complex128


@dataclass
class StateBlock:
    """2**n_qubits complex64 amplitudes, qubit 0 in the most significant bit."""

    n_qubits: int
    amps: np.ndarray

    @classmethod
    def zero_state(cls, n_qubits: int) -> StateBlock:
        amps = np.zeros(2**n_qubits, dtype=DTYPE)
        amps[0] = 1.0
        return cls(n_qubits, amps)


# Kernels over (rows, 2^n) complex64 arrays, one state per row, qubit 0 in
# the most significant bit.


def _b_view1(arr: np.ndarray, nb: int, q: int):
    return arr.reshape(arr.shape[0], 1 << q, 2, 1 << (nb - 1 - q))


def _b_diag1(arr: np.ndarray, nb: int, q: int, d) -> None:
    view = _b_view1(arr, nb, q)
    if d.ndim == 2:  # one diagonal per row
        view *= d.reshape(-1, 1, 2, 1)
        return
    # a unit entry leaves its half as it is
    d0, d1 = d.tolist()
    if d0 != 1 and d1 != 1:
        view *= d.reshape(1, 1, 2, 1)
    elif d0 != 1:
        view[:, :, 0, :] *= d[0]
    elif d1 != 1:
        view[:, :, 1, :] *= d[1]


def _b_mat1(arr: np.ndarray, nb: int, q: int, u) -> None:
    view = _b_view1(arr, nb, q)
    v0 = view[:, :, 0, :]
    v1 = view[:, :, 1, :]
    if u.ndim == 2:
        t0 = u[0, 0] * v0 + u[0, 1] * v1
        t1 = u[1, 0] * v0 + u[1, 1] * v1
    else:  # one matrix per row
        c = u.reshape(-1, 2, 2, 1, 1)
        t0 = c[:, 0, 0] * v0 + c[:, 0, 1] * v1
        t1 = c[:, 1, 0] * v0 + c[:, 1, 1] * v1
    view[:, :, 0, :] = t0
    view[:, :, 1, :] = t1


def _b_view2(arr: np.ndarray, nb: int, qa: int, qb: int):
    lo, hi = (qa, qb) if qa < qb else (qb, qa)
    return arr.reshape(
        arr.shape[0], 1 << lo, 2, 1 << (hi - lo - 1), 2, 1 << (nb - 1 - hi)
    )


def _b_diag2(arr: np.ndarray, nb: int, qa: int, qb: int, d4) -> None:
    m = np.asarray(d4).reshape(2, 2)
    if qa > qb:
        m = m.T
    view = _b_view2(arr, nb, qa, qb)
    (m00, m01), (m10, m11) = m.tolist()
    if m00 != 1 and m01 != 1 and m10 != 1 and m11 != 1:
        view *= m.reshape(1, 1, 2, 1, 2, 1)
        return
    for i, j, v in ((0, 0, m00), (0, 1, m01), (1, 0, m10), (1, 1, m11)):
        if v != 1:  # CZ touches one quarter
            view[:, :, i, :, j, :] *= m[i, j]


def _b_mat2(arr: np.ndarray, nb: int, qa: int, qb: int, u) -> None:
    view = _b_view2(arr, nb, qa, qb)
    # axis 2 carries the lower local qubit; u is indexed |qa qb>
    swap = qa > qb
    sub = lambda i, j: view[:, :, j, :, i, :] if swap else view[:, :, i, :, j, :]
    new = {}
    for i in (0, 1):
        for j in (0, 1):
            acc = None
            for k in (0, 1):
                for l in (0, 1):
                    coeff = complex(u[2 * i + j, 2 * k + l])
                    if coeff == 0:
                        continue
                    part = coeff * sub(k, l)
                    acc = part if acc is None else acc + part
            new[i, j] = acc
    for (i, j), t in new.items():
        if t is None:
            sub(i, j)[:] = 0
        else:
            sub(i, j)[:] = t


# The one working-set budget of both engines: a tile op works through the
# array in slices of about this many bytes, so its temporaries stay small
# next to the state, and the path sum sizes its row tiles to fit it.
_SLICE_BYTES = 1 << 20


def _b_tile(arr: np.ndarray, nb: int, q0: int, k: int, m) -> None:
    # m is a 2^k x 2^k operator, indexed |new><old>, on positions q0..q0+k-1;
    # the numpy form that streams best depends on the positions below them
    dim, low = 1 << k, 1 << (nb - q0 - k)
    view = arr.reshape(-1, dim, low)
    slice_amps = _SLICE_BYTES // arr.itemsize
    if low < dim:
        # fewer than k below (none: the transposes are free): one gemm
        # on the tile axis moved last, then moved back
        step = max(1, slice_amps // (dim * low))
        for s in range(0, view.shape[0], step):
            sub = view[s : s + step]
            flat = np.ascontiguousarray(sub.transpose(0, 2, 1)).reshape(-1, dim)
            sub[...] = (flat @ m.T).reshape(-1, low, dim).transpose(0, 2, 1)
        return
    # at least k below: batched matmul on column slices
    width = min(low, max(1, slice_amps // dim))
    step = max(1, slice_amps // (dim * width))
    for s in range(0, view.shape[0], step):
        for t in range(0, low, width):
            sub = view[s : s + step, :, t : t + width]
            sub[...] = np.matmul(m, sub)


# Lowered op encodings: ("diag1", blk, q, d2), ("mat1", blk, q, u2),
# ("diag2", blk, qa, qb, d4), ("mat2", blk, qa, qb, u4) and
# ("tile", blk, q0, k, m), where blk picks one of the arrays and q, qa, qb,
# q0 are qubit positions within it.
_KERNELS = {
    "diag1": _b_diag1,
    "mat1": _b_mat1,
    "diag2": _b_diag2,
    "mat2": _b_mat2,
    "tile": _b_tile,
}


def _one_qubit_op(u: np.ndarray, blk: int, local_q: int) -> tuple:
    if abs(u[0, 1]) == 0 and abs(u[1, 0]) == 0:
        return ("diag1", blk, local_q, np.diag(u).astype(DTYPE))
    return ("mat1", blk, local_q, np.asarray(u, dtype=DTYPE))


def lower_gate(gate: Gate, blk: int, pos) -> tuple:
    """The op for a gate acting inside array blk; pos[q] is qubit q's position there."""
    u = gate_matrix(gate)
    if len(gate.qubits) == 1:
        return _one_qubit_op(u, blk, pos[gate.qubits[0]])
    la, lb = pos[gate.qubits[0]], pos[gate.qubits[1]]
    if gate.kind is GateKind.CZ:
        return ("diag2", blk, la, lb, np.diag(u).astype(DTYPE))
    return ("mat2", blk, la, lb, u)


def apply_op(op: tuple, blocks, n_blk) -> None:
    """Apply one lowered op in place to blocks[blk], a (rows, 2^n_blk[blk]) array."""
    blk = op[1]
    _KERNELS[op[0]](blocks[blk], n_blk[blk], *op[2:])


class ClusterKind(enum.Enum):
    DIAGONAL = "diagonal"
    X_HALF = "x_1_2"
    Y_HALF = "y_1_2"
    H = "h"
    GENERIC = "generic"


_KIND_TO_CLUSTER = {
    GateKind.X_HALF: ClusterKind.X_HALF,
    GateKind.Y_HALF: ClusterKind.Y_HALF,
    GateKind.H: ClusterKind.H,
}


@dataclass
class GateCluster:
    """Commuting gate group applied as one unit.

    DIAGONAL clusters hold per-qubit T counts mod 8 plus CZ pair parities;
    the named one-qubit kinds hold a bit-encoded qubit set; GENERIC keeps
    its gates verbatim.
    """

    kind: ClusterKind
    n_qubits: int
    qubit_mask: int = 0
    t_counts: np.ndarray | None = None
    cz_parity: dict[tuple[int, int], int] = field(default_factory=dict)
    gates: list[Gate] = field(default_factory=list)

    @property
    def diagonal(self) -> bool:
        return self.kind is ClusterKind.DIAGONAL

    def add(self, gate: Gate) -> None:
        self.gates.append(gate)
        for q in gate.qubits:
            self.qubit_mask |= 1 << q
        if gate.kind is GateKind.T:
            self.t_counts[gate.qubits[0]] = (self.t_counts[gate.qubits[0]] + 1) % 8
        elif gate.kind is GateKind.CZ:
            pair = tuple(sorted(gate.qubits))
            self.cz_parity[pair] = self.cz_parity.get(pair, 0) ^ 1


def _gate_cluster_kind(gate: Gate) -> ClusterKind:
    if gate.kind in DIAGONAL_KINDS:
        return ClusterKind.DIAGONAL
    return _KIND_TO_CLUSTER.get(gate.kind, ClusterKind.GENERIC)


def _gate_mask(gate: Gate) -> int:
    m = 0
    for q in gate.qubits:
        m |= 1 << q
    return m


def cluster_gates(circuit: Circuit) -> list[GateCluster]:
    """Group gates into clusters; replaying clusters in order is equivalent.

    No engine applies clusters: run_full fuses gates per qubit tile
    instead, and the grouping is kept for inspection (the benchmark
    reports its count).

    A gate may hop backwards over clusters it commutes with (disjoint
    qubits, or both diagonal) and merges into the nearest cluster of its
    own kind that can take it.
    """
    n = circuit.n_qubits
    clusters: list[GateCluster] = []
    for gate in circuit.gates:
        kind = _gate_cluster_kind(gate)
        gmask = _gate_mask(gate)
        gdiag = gate.kind in DIAGONAL_KINDS
        target = None
        for cl in reversed(clusters):
            if cl.kind is kind and _can_take(cl, gate, kind, gmask):
                target = cl
                break
            commutes = (cl.qubit_mask & gmask) == 0 or (cl.diagonal and gdiag)
            if not commutes:
                break
        if target is None:
            target = GateCluster(kind, n)
            if kind is ClusterKind.DIAGONAL:
                target.t_counts = np.zeros(n, dtype=np.int8)
            clusters.append(target)
        target.add(gate)
    return [cl for cl in clusters if not _cluster_is_identity(cl)]


def _can_take(cl: GateCluster, gate: Gate, kind: ClusterKind, gmask: int) -> bool:
    if kind is ClusterKind.DIAGONAL:
        return True
    if kind is ClusterKind.GENERIC:
        return True
    return (cl.qubit_mask & gmask) == 0


def _cluster_is_identity(cl: GateCluster) -> bool:
    # T counts and CZ parities can cancel to nothing.
    if cl.kind is not ClusterKind.DIAGONAL:
        return False
    return not np.any(cl.t_counts) and not any(cl.cz_parity.values())


# Widest qubit tile run_full fuses into one matrix; of widths 5-8, 7 ran
# 21- and 24-qubit states fastest (8 was 2.7x slower at 24 qubits).
_TILE_QUBITS = 7


def _tiles(n: int) -> list[tuple[int, int]]:
    """(first position, width) of balanced tiles covering n positions, none
    wider than _TILE_QUBITS."""
    count = -(-n // _TILE_QUBITS)
    bounds = [n * i // count for i in range(count + 1)]
    return [(a, b - a) for a, b in zip(bounds, bounds[1:])]


def _tile_op(gates, q0: int, k: int) -> tuple:
    """One ("tile", 0, q0, k, m) op for gates, in order, on positions q0..q0+k-1.

    m is composed in complex128 by the kernels themselves: row j of an
    identity batch becomes the image of basis state j, so the batch ends
    as the transpose of m.
    """
    batch = np.eye(1 << k, dtype=ACC_DTYPE)
    pos = {q: q - q0 for q in range(q0, q0 + k)}
    for gate in gates:
        apply_op(lower_gate(gate, 0, pos), [batch], (k,))
    return ("tile", 0, q0, k, batch.T.astype(DTYPE))


def run_full(circuit: Circuit) -> StateBlock:
    """Simulate the full circuit from |0...0> as a one-row array in which
    every qubit sits at its own position.

    The positions are split into tiles (`_tiles`).  A gate inside one tile
    joins that tile's pending run, which is applied as one fused matrix
    (`_tile_op`) when a gate spanning two tiles touches the tile, and at
    the end.  A spanning gate is applied on its own, and so is every gate
    when one tile covers the state: its matrix would cost 2^n per gate.
    The 8·2^n-byte state is allocated first, so a state that does not fit
    raises numpy's MemoryError before any gate runs.
    """
    n = circuit.n_qubits
    state = StateBlock.zero_state(n)
    blocks, n_blk, identity = [state.amps.reshape(1, -1)], (n,), range(n)
    tiles = _tiles(n)
    tile_of = [t for t, (_, k) in enumerate(tiles) for _ in range(k)]
    pending: dict[int, list[Gate]] = {}

    def flush(t: int) -> None:
        if t in pending:
            apply_op(_tile_op(pending.pop(t), *tiles[t]), blocks, n_blk)

    for gate in circuit.gates:
        owners = {tile_of[q] for q in gate.qubits}
        if len(owners) == 1 and len(tiles) > 1:
            pending.setdefault(owners.pop(), []).append(gate)
            continue
        for t in owners:
            flush(t)
        apply_op(lower_gate(gate, 0, identity), blocks, n_blk)
    for t in list(pending):
        flush(t)
    return state


@dataclass
class AmplitudeBatch:
    """Requested basis-state indices with their (accumulated) amplitudes."""

    indices: np.ndarray  # int64
    amps: np.ndarray  # complex128

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.amps = np.asarray(self.amps, dtype=ACC_DTYPE)
        if self.indices.shape != self.amps.shape:
            raise ValueError("indices and amplitudes differ in length")

    @classmethod
    def zeros(cls, indices) -> AmplitudeBatch:
        indices = np.asarray(indices, dtype=np.int64)
        return cls(indices, np.zeros(len(indices), dtype=ACC_DTYPE))


def fetch_amplitudes(state: StateBlock, indices) -> AmplitudeBatch:
    """Read amplitudes at the requested indices, in request order."""
    idx = np.asarray(indices, dtype=np.int64)
    if len(idx) and (idx.min() < 0 or idx.max() >= len(state.amps)):
        raise IndexError("amplitude index outside the state")
    return AmplitudeBatch(idx, state.amps[idx].astype(ACC_DTYPE))


_EXACT_KEYS = ("count", "sha256")
_EXACT_BYTES = 8 + 16  # one int64 index and one complex128 amplitude


def write_amplitudes(
    path, batch: AmplitudeBatch, digits: int | None = 9, header: dict | None = None
) -> None:
    """Write an amplitude file: "# key value" header lines, then the amplitudes.

    With `digits`, one "index_hex re im" line per amplitude in scientific
    notation with that many significant digits; with digits=None, the
    exact form.  Any "count" or "sha256" entry of `header` is replaced by
    the file's own (exact form) or dropped (text form).
    """
    header = {k: v for k, v in (header or {}).items() if k not in _EXACT_KEYS}
    if digits is None:
        payload = base64.b64encode(
            batch.indices.astype("<i8").tobytes() + batch.amps.astype("<c16").tobytes()
        )
        header["count"] = str(len(batch.indices))
        header["sha256"] = hashlib.sha256(payload).hexdigest()
        lines = [payload.decode("ascii")]
    else:
        fmt = f"%x %.{digits - 1}e %.{digits - 1}e"
        lines = (fmt % (i, a.real, a.imag) for i, a in zip(batch.indices, batch.amps))
    with open(path, "w") as f:
        for key, value in header.items():
            f.write(f"# {key} {value}\n")
        for line in lines:
            f.write(line + "\n")


def _read_file(path) -> tuple[dict, memoryview]:
    """The leading '# key value' header entries of an amplitude file, and
    a view of the rest with outer whitespace trimmed."""
    with open(path, "rb") as f:
        data = f.read()
    header: dict[str, str] = {}
    pos, stop = 0, len(data)
    # a body line is never sliced out here: exact payloads are large
    while pos < stop and data[pos : pos + 1] in b"# \t\r\n":
        end = data.find(b"\n", pos)
        end = stop if end < 0 else end + 1
        line = data[pos:end].strip()
        if line and not line.startswith(b"#"):
            break
        entry = line[1:].decode().split(None, 1)
        if len(entry) == 2:
            header[entry[0]] = entry[1]
        pos = end
    while stop > pos and data[stop - 1 : stop].isspace():
        stop -= 1
    return header, memoryview(data)[pos:stop]


def _check_payload(header: dict, payload) -> None:
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise ValueError("amplitude payload does not match its sha256 header")


def _decode_exact(header: dict, payload) -> AmplitudeBatch:
    _check_payload(header, payload)
    count = int(header.get("count", ""))
    raw = binascii.a2b_base64(payload)
    if len(raw) != _EXACT_BYTES * count:
        raise ValueError(f"exact payload holds {len(raw)} bytes, not {count} amplitudes")
    return AmplitudeBatch(
        np.frombuffer(raw, "<i8", count).astype(np.int64),
        np.frombuffer(raw, "<c16", count, offset=8 * count).astype(ACC_DTYPE),
    )


def read_amplitude_header(path, verify: bool = False) -> dict:
    """The "# key value" header of an amplitude file, without decoding its amplitudes.

    With verify, the payload of an exact file is also checked against its
    sha256 header, still without decoding it; a mismatch, or a file that
    is not in the exact form, raises ValueError.
    """
    header, body = _read_file(path)
    if verify:
        _check_payload(header, body)
    return header


def read_amplitudes(path) -> tuple[AmplitudeBatch, dict]:
    """Parse an amplitude file of either form; returns the batch and its header.

    An exact file is checked against its sha256 and count before it is
    decoded, and any mismatch raises ValueError.
    """
    header, body = _read_file(path)
    if "sha256" in header:
        return _decode_exact(header, body), header
    indices: list[int] = []
    amps: list[complex] = []
    for raw in bytes(body).split(b"\n"):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(b"#"):
            entry = line[1:].decode().split(None, 1)
            if len(entry) == 2:
                header[entry[0]] = entry[1]
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"amplitude line {line!r}: expected 3 fields")
        indices.append(int(parts[0], 16))
        amps.append(complex(float(parts[1]), float(parts[2])))
    return AmplitudeBatch(np.array(indices, dtype=np.int64), np.array(amps)), header
