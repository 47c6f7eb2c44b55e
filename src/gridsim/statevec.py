"""Dense state-vector engine: single-precision amplitudes, gate clustering,
cache-sized slice scheduling, and amplitude files.

Amplitudes are kept in complex64; norms and amplitude accumulation use
double precision.  Gates tolerate arbitrary (including non-unitary) 2x2
operators.

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
    ONE_QUBIT_KINDS,
    gate_matrix,
)

DTYPE = np.complex64
ACC_DTYPE = np.complex128
DEFAULT_SLICE_BYTES = 262144  # matches a typical per-core L2 cache

# e^(i*pi*k/4) for k in 0..7; T-count and CZ-parity phases live on this wheel.
PHASE8 = np.exp(0.25j * np.pi * np.arange(8)).astype(DTYPE)


class MemoryBudgetError(MemoryError):
    pass


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

    def copy(self) -> StateBlock:
        return StateBlock(self.n_qubits, self.amps.copy())

    def norm_squared(self) -> float:
        # Accumulate in double precision regardless of amplitude dtype.
        return float(np.einsum("i,i->", self.amps, self.amps.conj(), dtype=ACC_DTYPE).real)


def _mat1_on_range(amps: np.ndarray, u: np.ndarray, shift: int) -> None:
    # In-place 2x2 update on an aligned range where the pair stride fits.
    u = np.asarray(u, dtype=amps.dtype)
    view = amps.reshape(-1, 2, 1 << shift)
    x0 = view[:, 0, :]
    x1 = view[:, 1, :]
    n0 = u[0, 0] * x0 + u[0, 1] * x1
    n1 = u[1, 0] * x0 + u[1, 1] * x1
    view[:, 0, :] = n0
    view[:, 1, :] = n1


def apply_matrix1(state: StateBlock, u: np.ndarray, qubit: int) -> None:
    """Apply a 2x2 operator to one qubit."""
    _mat1_on_range(state.amps, u, state.n_qubits - 1 - qubit)


def apply_diag1(state: StateBlock, diag: np.ndarray, qubit: int) -> None:
    """Apply a diagonal 1q operator diag(d0, d1)."""
    d = np.asarray(diag, dtype=state.amps.dtype)
    view = state.amps.reshape(-1, 2, 1 << (state.n_qubits - 1 - qubit))
    view[:, 0, :] *= d[0]
    view[:, 1, :] *= d[1]


def _mat2_permuted(u: np.ndarray, first_is_low: bool) -> np.ndarray:
    # Gate matrices index |first second>; swap if the low qubit is listed second.
    if first_is_low:
        return u
    perm = [0, 2, 1, 3]
    return u[np.ix_(perm, perm)]


def apply_matrix2(state: StateBlock, u: np.ndarray, qa: int, qb: int) -> None:
    """Apply a 4x4 operator to qubit pair (qa, qb); qa indexes the high bit of u."""
    lo, hi = (qa, qb) if qa < qb else (qb, qa)
    m = np.asarray(_mat2_permuted(u, qa < qb), dtype=state.amps.dtype)
    _apply_mat2_dense(state.amps, m, state.n_qubits, lo, hi)


def _apply_mat2_dense(amps: np.ndarray, m: np.ndarray, n: int, lo: int, hi: int) -> None:
    view = amps.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, -1)
    x = [view[:, 0, :, 0, :], view[:, 0, :, 1, :], view[:, 1, :, 0, :], view[:, 1, :, 1, :]]
    out = [m[i, 0] * x[0] + m[i, 1] * x[1] + m[i, 2] * x[2] + m[i, 3] * x[3] for i in range(4)]
    view[:, 0, :, 0, :] = out[0]
    view[:, 0, :, 1, :] = out[1]
    view[:, 1, :, 0, :] = out[2]
    view[:, 1, :, 1, :] = out[3]


def apply_diag2(state: StateBlock, diag4: np.ndarray, qa: int, qb: int) -> None:
    """Apply a diagonal 4x4 operator given as its diagonal (|qa qb> order)."""
    n = state.n_qubits
    sa, sb = n - 1 - qa, n - 1 - qb
    d = np.asarray(diag4, dtype=state.amps.dtype)
    idx = np.arange(len(state.amps), dtype=np.int64)
    sel = (((idx >> sa) & 1) << 1) | ((idx >> sb) & 1)
    state.amps *= d.take(sel)


def apply_gate(state: StateBlock, gate: Gate) -> None:
    """Apply one circuit gate, using diagonal fast paths for T and CZ."""
    u = gate_matrix(gate)
    if gate.kind is GateKind.T:
        apply_diag1(state, np.diag(u), gate.qubits[0])
    elif gate.kind is GateKind.CZ:
        apply_diag2(state, np.diag(u), gate.qubits[0], gate.qubits[1])
    elif gate.kind in ONE_QUBIT_KINDS:
        apply_matrix1(state, u, gate.qubits[0])
    else:
        apply_matrix2(state, u, gate.qubits[0], gate.qubits[1])


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


def _diag_cluster_terms(cl: GateCluster):
    tq = [(q, int(c)) for q, c in enumerate(cl.t_counts) if c]
    pairs = [p for p, par in cl.cz_parity.items() if par]
    return tq, pairs


def apply_diagonal_cluster(
    state_amps: np.ndarray, cluster: GateCluster, n_qubits: int, base_index: int = 0
) -> None:
    """One read-modify-write pass applying all T counts and CZ parities.

    The phase exponent is accumulated mod 8 per amplitude index, so the
    whole cluster costs a single multiplier lookup per amplitude.
    """
    tq, pairs = _diag_cluster_terms(cluster)
    if not tq and not pairs:
        return
    idx = np.arange(base_index, base_index + len(state_amps), dtype=np.int64)
    exp = np.zeros(len(state_amps), dtype=np.int64)
    for q, count in tq:
        shift = n_qubits - 1 - q
        exp += count * ((idx >> shift) & 1)
    if pairs:
        par = np.zeros(len(state_amps), dtype=np.int64)
        for a, b in pairs:
            par ^= (idx >> (n_qubits - 1 - a)) & (idx >> (n_qubits - 1 - b)) & 1
        exp += par << 2
    state_amps *= PHASE8.take(exp & 7)


def _apply_cluster_dense(state: StateBlock, cluster: GateCluster) -> None:
    if cluster.kind is ClusterKind.DIAGONAL:
        apply_diagonal_cluster(state.amps, cluster, state.n_qubits)
    elif cluster.kind is ClusterKind.GENERIC:
        for gate in cluster.gates:
            apply_gate(state, gate)
    else:
        u = gate_matrix(cluster.gates[0])
        q = 0
        mask = cluster.qubit_mask
        while mask:
            if mask & 1:
                apply_matrix1(state, u, q)
            mask >>= 1
            q += 1


def apply_cluster(state: StateBlock, cluster: GateCluster) -> None:
    """Apply a cluster to the whole state."""
    _apply_cluster_dense(state, cluster)


def _slice_local(cluster: GateCluster, n: int, slice_amps: int) -> bool:
    # A cluster can run inside one slice when every touched pair stays inside.
    if cluster.kind is ClusterKind.DIAGONAL:
        return True
    if cluster.kind is ClusterKind.GENERIC:
        return False
    lowest = n  # qubits >= n - log2(slice) have strides below the slice length
    mask = cluster.qubit_mask
    q = 0
    while mask:
        if mask & 1:
            lowest = min(lowest, q)
        mask >>= 1
        q += 1
    return (1 << (n - 1 - lowest)) < slice_amps if lowest < n else True


def _apply_cluster_slice(
    amps: np.ndarray, cluster: GateCluster, n: int, base: int, slice_amps: int
) -> None:
    if cluster.kind is ClusterKind.DIAGONAL:
        apply_diagonal_cluster(amps, cluster, n, base)
        return
    u = gate_matrix(cluster.gates[0])
    mask = cluster.qubit_mask
    q = 0
    while mask:
        if mask & 1:
            _mat1_on_range(amps, u, n - 1 - q)
        mask >>= 1
        q += 1


def run_full(
    circuit: Circuit,
    slice_bytes: int = DEFAULT_SLICE_BYTES,
    mem_limit: int | None = None,
) -> StateBlock:
    """Simulate the full circuit from |0...0>, streaming cache-sized slices.

    Consecutive slice-local clusters are fused: each slice passes through
    the whole run before the next slice is touched.  The result does not
    depend on slice_bytes.
    """
    n = circuit.n_qubits
    required = (2**n) * np.dtype(DTYPE).itemsize
    if mem_limit is not None and required > mem_limit:
        raise MemoryBudgetError(
            f"state of {n} qubits requires {required} bytes, budget is {mem_limit}"
        )
    state = StateBlock.zero_state(n)
    clusters = cluster_gates(circuit)
    slice_amps = 1 << max(1, (slice_bytes // np.dtype(DTYPE).itemsize).bit_length() - 1)
    slice_amps = min(slice_amps, len(state.amps))

    i = 0
    while i < len(clusters):
        if _slice_local(clusters[i], n, slice_amps):
            j = i
            while j < len(clusters) and _slice_local(clusters[j], n, slice_amps):
                j += 1
            for base in range(0, len(state.amps), slice_amps):
                chunk = state.amps[base : base + slice_amps]
                for cl in clusters[i:j]:
                    _apply_cluster_slice(chunk, cl, n, base, slice_amps)
            i = j
        else:
            apply_cluster(state, clusters[i])
            i += 1
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

    def copy(self) -> AmplitudeBatch:
        return AmplitudeBatch(self.indices.copy(), self.amps.copy())


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
