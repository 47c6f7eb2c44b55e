"""Dense state-vector engine: single-precision amplitudes, the gate kernels
both engines run, and amplitude files.

Amplitudes are kept in complex64; norms and amplitude accumulation use
double precision.  Gates tolerate arbitrary (including non-unitary) 2x2
operators.  The kernels act on (rows, 2^n) arrays: the path sum keeps one
row per live prefix, and the full state vector is the one-row case.
run_full applies the schedule that cluster_gates returns: the qubit
positions are split into tiles of at most _TILE_QUBITS, each run of gates
inside one tile is one fused matrix, applied by one matmul per slice of
about 1 MB, and only gates spanning two tiles run as single-gate kernels.
The path sum lowers one op per gate and runs its prefixes in row tiles of
about the same size; `one_qubit_op` is the one rule that lowers a gate's
2x2 matrix and a cross gate's per-digit stack alike.  Each single-gate
kernel streams runs of at least one cache line whatever qubit it targets:
shorter runs of a large array are applied column by column, as numpy's
loops over 1-4 amplitudes cost 2-5x.

Amplitude files come in two forms that share a leading "# key value"
header.  Text lines ("index_hex re im" at a chosen number of significant
digits) are the interchange format of the command line.  The exact form
stores the raw little-endian int64 indices followed by the complex128
amplitudes as one base64 line, with "count" and a "sha256" of that line
in the header, so a reader can check a file without decoding it and a
round trip is bit-identical.  The input helpers the front ends share live
here too, `read_json_fields` (the one JSON reader) among them.
"""
from __future__ import annotations

import base64
import binascii
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateKind, gate_matrix

DTYPE = np.complex64
ACC_DTYPE = np.complex128


@dataclass
class StateBlock:
    """2**n_qubits complex64 amplitudes, qubit 0 in the most significant bit."""

    n_qubits: int
    amps: np.ndarray


# Kernels over (rows, 2^n) complex64 arrays, one state per row, qubit 0 in
# the most significant bit.

# Runs below one 64-byte line (8 complex64) leave numpy inner loops of 1-4
# amplitudes: on a 28 x 4096 tile (2 vCPUs), one _b_mat1 took 1.35 ms at
# q=nb-2 and 0.78 ms at q=nb-3, against 0.38-0.45 ms at q <= nb-6.  Each
# [..., l:l+1] column is one strided loop (0.47 and 0.53 ms), with the same
# products in the same order.  A column below _COLUMN_AMPS saves less than
# its calls cost (a 1024-amplitude row at q=nb-3: 16 us whole, 37 by column).
_LINE_AMPS, _COLUMN_AMPS = 8, 4096


def _by_column(view: np.ndarray, body) -> None:
    """body(view), column by column if its last axis is short and its columns long."""
    low = view.shape[-1]
    if low >= _LINE_AMPS or view.size < low * _COLUMN_AMPS:
        return body(view)
    for l in range(low):
        body(view[..., l : l + 1])


def _b_view1(arr: np.ndarray, nb: int, q: int):
    return arr.reshape(arr.shape[0], 1 << q, 2, 1 << (nb - 1 - q))


def _b_diag1(arr: np.ndarray, nb: int, q: int, d) -> None:
    def body(view):
        # both halves in one pass (d.ndim == 2: one diagonal per row), except
        # on a column, where that pass would loop over pairs of amplitudes
        if view.shape[-1] > 1 and (d.ndim == 2 or 1 not in d.tolist()):
            view *= d.reshape(-1, 1, 2, 1)
            return
        for i in (0, 1):
            if d.ndim == 2:
                view[:, :, i, :] *= d[:, i, None, None]
            elif d[i] != 1:  # a unit entry leaves its half as it is
                view[:, :, i, :] *= d[i]

    _by_column(_b_view1(arr, nb, q), body)


def _b_mat1(arr: np.ndarray, nb: int, q: int, u) -> None:
    def body(view):
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

    _by_column(_b_view1(arr, nb, q), body)


def _b_view2(arr: np.ndarray, nb: int, qa: int, qb: int):
    lo, hi = (qa, qb) if qa < qb else (qb, qa)
    return arr.reshape(
        arr.shape[0], 1 << lo, 2, 1 << (hi - lo - 1), 2, 1 << (nb - 1 - hi)
    )


def _b_diag2(arr: np.ndarray, nb: int, qa: int, qb: int, d4) -> None:
    m = np.asarray(d4).reshape(2, 2)
    if qa > qb:
        m = m.T
    # only the quarters whose entry is not 1: CZ touches one
    quarters = [(i, j, m[i, j]) for i in (0, 1) for j in (0, 1) if m[i, j] != 1]

    def body(view):
        for i, j, v in quarters:
            view[:, :, i, :, j, :] *= v

    _by_column(_b_view2(arr, nb, qa, qb), body)


def _b_mat2(arr: np.ndarray, nb: int, qa: int, qb: int, u) -> None:
    # axis 2 carries the lower local qubit; u is indexed |qa qb>
    swap = qa > qb
    coeffs = u.tolist()
    bits = ((0, 0), (0, 1), (1, 0), (1, 1))

    def body(view):
        sub = lambda i, j: view[:, :, j, :, i, :] if swap else view[:, :, i, :, j, :]
        new = []
        for row in coeffs:  # zero terms are skipped, the rest summed in order
            parts = [c * sub(k, l) for c, (k, l) in zip(row, bits) if c != 0]
            new.append(sum(parts[1:], parts[0]) if parts else 0)
        for (i, j), t in zip(bits, new):
            sub(i, j)[:] = t

    _by_column(_b_view2(arr, nb, qa, qb), body)


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


def one_qubit_op(u: np.ndarray, blk: int, q: int) -> tuple:
    """The op for u at position q of array blk, u one 2x2 matrix or a
    (rank, 2, 2) stack of one per path digit: ("diag1", blk, q, diagonals)
    if every off-diagonal entry is zero, else ("mat1", blk, q, u)."""
    if not np.any(u[..., 0, 1]) and not np.any(u[..., 1, 0]):
        return ("diag1", blk, q, u.diagonal(axis1=-2, axis2=-1).astype(DTYPE))
    return ("mat1", blk, q, u.astype(DTYPE))


def lower_gate(gate: Gate, blk: int, pos) -> tuple:
    """The op for a gate acting inside array blk; pos[q] is qubit q's position there."""
    u = gate_matrix(gate)
    if len(gate.qubits) == 1:
        return one_qubit_op(u, blk, pos[gate.qubits[0]])
    la, lb = pos[gate.qubits[0]], pos[gate.qubits[1]]
    if gate.kind is GateKind.CZ:
        return ("diag2", blk, la, lb, np.diag(u).astype(DTYPE))
    return ("mat2", blk, la, lb, u)


def apply_op(op: tuple, blocks, n_blk) -> None:
    """Apply one lowered op in place to blocks[blk], a (rows, 2^n_blk[blk]) array."""
    blk = op[1]
    _KERNELS[op[0]](blocks[blk], n_blk[blk], *op[2:])


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


@dataclass
class GateCluster:
    """Gates that run_full applies as one op: with tile=(q0, k), a run of
    gates inside positions q0..q0+k-1, fused by `_tile_op`; with tile=None,
    a single gate applied on its own."""

    tile: tuple[int, int] | None
    gates: list[Gate]


def cluster_gates(circuit: Circuit) -> list[GateCluster]:
    """The clusters run_full applies, in order: its schedule.

    The positions are split into tiles (`_tiles`).  A gate inside one tile
    joins that tile's pending run, which closes as a tile cluster when a
    gate spanning two tiles touches the tile, and at the end.  A spanning
    gate is a cluster on its own, and so is every gate when one tile covers
    the state: its matrix would cost 2^n per gate.
    """
    tiles = _tiles(circuit.n_qubits)
    tile_of = [t for t, (_, k) in enumerate(tiles) for _ in range(k)]
    pending: dict[int, list[Gate]] = {}
    clusters: list[GateCluster] = []

    def flush(t: int) -> None:
        if t in pending:
            clusters.append(GateCluster(tiles[t], pending.pop(t)))

    for gate in circuit.gates:
        owners = {tile_of[q] for q in gate.qubits}
        if len(owners) == 1 and len(tiles) > 1:
            pending.setdefault(owners.pop(), []).append(gate)
            continue
        for t in owners:
            flush(t)
        clusters.append(GateCluster(None, [gate]))
    for t in list(pending):
        flush(t)
    return clusters


def run_full(circuit: Circuit) -> StateBlock:
    """Simulate the full circuit from |0...0> as a one-row array in which
    every qubit sits at its own position, one op per cluster of
    `cluster_gates`.

    The 8·2^n-byte state is allocated first, so a state that does not fit
    raises numpy's MemoryError before any gate runs.
    """
    n = circuit.n_qubits
    state = StateBlock(n, np.zeros(1 << n, dtype=DTYPE))
    state.amps[0] = 1.0
    blocks, n_blk, identity = [state.amps.reshape(1, -1)], (n,), range(n)
    for cl in cluster_gates(circuit):
        if cl.tile is None:
            op = lower_gate(cl.gates[0], 0, identity)
        else:
            op = _tile_op(cl.gates, *cl.tile)
        apply_op(op, blocks, n_blk)
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


def basis_indices(indices, n_qubits: int) -> np.ndarray:
    """indices as int64, each a basis state of n_qubits qubits; IndexError
    names the first that lies outside [0, 2^n_qubits)."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= 1 << n_qubits):
        bad = idx[(idx < 0) | (idx >= 1 << n_qubits)][0]
        raise IndexError(f"index {bad:x} is outside the {n_qubits}-qubit state")
    return idx


def fetch_amplitudes(state: StateBlock, indices) -> AmplitudeBatch:
    """Read amplitudes at the requested indices, in request order."""
    idx = basis_indices(indices, state.n_qubits)
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
    if digits is not None and digits < 1:
        raise ValueError(f"digits must be at least 1, got {digits}")
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


def utf8_text(data: bytes, path, first_line: int = 1) -> str:
    """data decoded as UTF-8; ValueError names the path and the line of
    the first byte that is not, counting data's first line as first_line."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = first_line + data.count(b"\n", 0, exc.start)
        raise ValueError(f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8") from None


_JSON_KINDS = {str: (str, "a string"), int: (int, "an integer"), float: ((int, float), "a number")}


def read_json_fields(path, **kinds: type) -> list:
    """The named fields of a JSON object file, in order, each of its kind:
    str, int, or float for any number; a bool is neither an int nor a
    number, and a float is not an int.  ValueError names the file."""
    try:
        with open(path, "rb") as f:
            raw = json.loads(utf8_text(f.read(), path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    for name, kind in kinds.items():
        if not isinstance(raw, dict) or name not in raw:
            raise ValueError(f"{path} lacks {name}")
        accepted, noun = _JSON_KINDS[kind]
        if isinstance(raw[name], bool) or not isinstance(raw[name], accepted):
            raise ValueError(f"{path}: {name} is not {noun}")
    return [kind(raw[name]) for name, kind in kinds.items()]


def _read_file(path) -> tuple[dict, memoryview, int]:
    """The leading '# key value' header entries of an amplitude file, a
    view of the rest with outer whitespace trimmed, and the number of the
    line that view starts on."""
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
        entry = utf8_text(line[1:], path, data.count(b"\n", 0, pos) + 1).split(None, 1)
        if len(entry) == 2:
            header[entry[0]] = entry[1]
        pos = end
    while stop > pos and data[stop - 1 : stop].isspace():
        stop -= 1
    return header, memoryview(data)[pos:stop], data.count(b"\n", 0, pos) + 1


def _check_payload(header: dict, payload) -> int:
    """The payload's amplitude count, once it matches the sha256 and count headers."""
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise ValueError("amplitude payload does not match its sha256 header")
    count = header.get("count", "")
    if not (count.isascii() and count.isdigit()):
        raise ValueError(f"count header {count!r} is missing or not an integer")
    if len(payload) != 4 * _EXACT_BYTES // 3 * int(count):  # 24 bytes: 32 base64 characters
        raise ValueError(f"exact payload holds {len(payload)} characters, not {count} amplitudes")
    return int(count)


def _decode_exact(header: dict, payload) -> AmplitudeBatch:
    count = _check_payload(header, payload)
    raw = binascii.a2b_base64(payload)
    if len(raw) != _EXACT_BYTES * count:
        raise ValueError(f"exact payload holds {len(raw)} bytes, not {count} amplitudes")
    return AmplitudeBatch(
        np.frombuffer(raw, "<i8", count).astype(np.int64),
        np.frombuffer(raw, "<c16", count, offset=8 * count).astype(ACC_DTYPE),
    )


def read_amplitude_header(path) -> dict:
    """The "# key value" header of an exact amplitude file, its payload
    checked against its sha256 and count headers without being decoded; a
    mismatch, or a file that is not in the exact form, raises ValueError.
    """
    header, body, _ = _read_file(path)
    _check_payload(header, body)
    return header


def read_amplitudes(path) -> tuple[AmplitudeBatch, dict]:
    """Parse an amplitude file of either form; returns the batch and its header.

    An exact file is checked against its sha256 and count before it is
    decoded, and any mismatch raises ValueError.  A text file's '#' lines
    after the data are skipped like blank ones; a malformed line raises
    ValueError naming the file and the line.
    """
    header, body, first = _read_file(path)
    if "sha256" in header:
        return _decode_exact(header, body), header
    indices: list[int] = []
    amps: list[complex] = []
    for lineno, raw in enumerate(bytes(body).split(b"\n"), start=first):
        line = raw.strip()
        if not line or line.startswith(b"#"):
            continue
        try:
            index, real, imag = line.split()
            indices.append(int(index, 16))
            amps.append(complex(float(real), float(imag)))
        except ValueError:
            text = line.decode(errors="replace")
            raise ValueError(f"{path}: line {lineno}: {text!r} is not 'index_hex re im'") from None
    return AmplitudeBatch(np.array(indices, dtype=np.int64), np.array(amps)), header
