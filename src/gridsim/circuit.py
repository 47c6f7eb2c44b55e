"""Circuit IR, text-format parser/serializer, and grid partition geometry.

Qubits live on a planar rows x cols grid and are numbered row-major, so
qubit = row * cols + col.  Basis-state indices put qubit 0 in the most
significant bit.  A circuit is a cycle-ordered list of gates, and
`circuit_hash` is its one identity.  A two-qubit gate may join any two
qubits: the grid shapes only the cuts, which split it along a straight
line between two adjacent rows or columns.  A `Cut` builds the membership
set of its block a once, `in_a`, and every gate classification reads it:
`gate_block` sides a gate, and `cross_gates` is the one rule for the gates
a cut crosses; its length is the cut's cross-gate count.
"""
from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np


class CircuitError(ValueError):
    pass


class ParseError(CircuitError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class GateKind(enum.Enum):
    H = "h"
    T = "t"
    X_HALF = "x_1_2"
    Y_HALF = "y_1_2"
    CZ = "cz"
    ISWAP = "is"
    GENERIC_2Q = "g2"


ONE_QUBIT_KINDS = frozenset({GateKind.H, GateKind.T, GateKind.X_HALF, GateKind.Y_HALF})
TWO_QUBIT_KINDS = frozenset({GateKind.CZ, GateKind.ISWAP, GateKind.GENERIC_2Q})

_NAME_TO_KIND = {k.value: k for k in GateKind}

_SQ2 = 1.0 / math.sqrt(2.0)

MAT_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128)
MAT_T = np.array([[1.0, 0.0], [0.0, np.exp(0.25j * np.pi)]], dtype=np.complex128)
MAT_X_HALF = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=np.complex128)
MAT_Y_HALF = 0.5 * np.array([[1 + 1j, -1 - 1j], [1 + 1j, 1 + 1j]], dtype=np.complex128)
MAT_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128)
MAT_ISWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1j, 0],
        [0, 1j, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=np.complex128,
)

_FIXED_MATRICES = {
    GateKind.H: MAT_H,
    GateKind.T: MAT_T,
    GateKind.X_HALF: MAT_X_HALF,
    GateKind.Y_HALF: MAT_Y_HALF,
    GateKind.CZ: MAT_CZ,
    GateKind.ISWAP: MAT_ISWAP,
}


@dataclass(eq=False)
class Gate:
    """One gate application: cycle index, kind, qubit tuple, optional 4x4 matrix."""

    cycle: int
    kind: GateKind
    qubits: tuple[int, ...]
    matrix: np.ndarray | None = None

    def __post_init__(self):
        self.qubits = tuple(int(q) for q in self.qubits)
        if self.cycle < 0:
            raise CircuitError(f"negative cycle index {self.cycle}")
        want = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if len(self.qubits) != want:
            raise CircuitError(f"{self.kind.value} takes {want} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"repeated qubit in {self.qubits}")
        if self.kind is GateKind.GENERIC_2Q:
            if self.matrix is None:
                raise CircuitError("g2 needs an explicit matrix")
            m = np.asarray(self.matrix, dtype=np.complex128)
            if m.shape != (4, 4):
                raise CircuitError(f"g2 matrix must be 4x4, got {m.shape}")
            if not np.allclose(m @ m.conj().T, np.eye(4), atol=1e-6):
                raise CircuitError("g2 matrix is not unitary within 1e-6")
            self.matrix = m
        elif self.matrix is not None:
            raise CircuitError(f"{self.kind.value} does not take a matrix")


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary for a gate, 2x2 or 4x4 complex128."""
    if gate.kind is GateKind.GENERIC_2Q:
        return gate.matrix
    return _FIXED_MATRICES[gate.kind]


def _default_grid(n: int) -> tuple[int, int]:
    # Most-square factorization with rows <= cols.
    best = (1, n)
    for r in range(1, int(math.isqrt(n)) + 1):
        if n % r == 0:
            best = (r, n // r)
    return best


@dataclass(eq=False)
class Circuit:
    """Gate list over a rows x cols grid, kept stably sorted by cycle; compared by identity."""

    rows: int
    cols: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise CircuitError(f"bad grid {self.rows}x{self.cols}")
        self.gates = sorted(self.gates, key=lambda g: g.cycle)
        self._validate()

    @property
    def n_qubits(self) -> int:
        return self.rows * self.cols

    @property
    def n_cycles(self) -> int:
        return self.gates[-1].cycle + 1 if self.gates else 0

    def _validate(self):
        n = self.n_qubits
        busy: dict[int, int] = {}
        seen_cycles = set()
        for g in self.gates:
            seen_cycles.add(g.cycle)
            for q in g.qubits:
                if not 0 <= q < n:
                    raise CircuitError(f"qubit {q} outside grid of {n}")
                if busy.get(q) == g.cycle:
                    raise CircuitError(f"qubit {q} used twice in cycle {g.cycle}")
                busy[q] = g.cycle
        if seen_cycles and seen_cycles != set(range(max(seen_cycles) + 1)):
            missing = sorted(set(range(max(seen_cycles) + 1)) - seen_cycles)
            raise CircuitError(f"cycle indices not contiguous, missing {missing}")


def parse_circuit(text: str, rows: int | None = None, cols: int | None = None) -> Circuit:
    """Parse the plain-text circuit format into a Circuit.

    First non-comment line is the qubit count; every following line is
    "cycle name qubit [qubit2]".  GENERIC_2Q lines carry the 16 matrix
    entries as re/im pairs after the qubits.  '#' starts a comment.
    """
    n_qubits = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n_qubits is None:
            if len(parts) != 1:
                raise ParseError(lineno, f"expected qubit count, got {raw!r}")
            try:
                n_qubits = int(parts[0])
            except ValueError:
                raise ParseError(lineno, f"bad qubit count {parts[0]!r}") from None
            if n_qubits < 1:
                raise ParseError(lineno, f"qubit count must be positive, got {n_qubits}")
            continue
        if len(parts) < 3:
            raise ParseError(lineno, f"short gate line {raw!r}")
        try:
            cycle = int(parts[0])
        except ValueError:
            raise ParseError(lineno, f"bad cycle index {parts[0]!r}") from None
        kind = _NAME_TO_KIND.get(parts[1])
        if kind is None:
            raise ParseError(lineno, f"unknown gate name {parts[1]!r}")
        n_args = 2 if kind in TWO_QUBIT_KINDS else 1
        matrix = None
        if kind is GateKind.GENERIC_2Q:
            if len(parts) != 2 + n_args + 32:
                raise ParseError(lineno, "g2 line needs 2 qubits and 16 re/im pairs")
            try:
                vals = [float(v) for v in parts[4:]]
            except ValueError:
                raise ParseError(lineno, "bad matrix entry on g2 line") from None
            flat = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
            matrix = flat.reshape(4, 4)
        elif len(parts) != 2 + n_args:
            raise ParseError(lineno, f"wrong argument count for {parts[1]!r}")
        try:
            qubits = tuple(int(p) for p in parts[2 : 2 + n_args])
        except ValueError:
            raise ParseError(lineno, f"bad qubit index on {raw!r}") from None
        try:
            gates.append(Gate(cycle, kind, qubits, matrix))
        except CircuitError as e:
            raise ParseError(lineno, str(e)) from None
    if n_qubits is None:
        raise ParseError(1, "empty circuit file")
    if rows is None or cols is None:
        rows, cols = _default_grid(n_qubits)
    if rows * cols != n_qubits:
        raise CircuitError(f"grid {rows}x{cols} does not hold {n_qubits} qubits")
    try:
        return Circuit(rows, cols, gates)
    except CircuitError as e:
        raise CircuitError(f"invalid circuit: {e}") from None


def serialize_circuit(circuit: Circuit) -> str:
    """Inverse of parse_circuit; emits LF-terminated lines in cycle order."""
    lines = [str(circuit.n_qubits)]
    for g in circuit.gates:
        parts = [str(g.cycle), g.kind.value] + [str(q) for q in g.qubits]
        if g.kind is GateKind.GENERIC_2Q:
            for v in g.matrix.ravel():
                parts.append(f"{v.real:.17g}")
                parts.append(f"{v.imag:.17g}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def circuit_hash(circuit: Circuit) -> str:
    """A circuit's identity: stable hex digest of its canonical serialization and grid."""
    payload = f"{circuit.rows}x{circuit.cols}\n" + serialize_circuit(circuit)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Cut:
    """Straight-line grid bipartition; block_a is the top or left block."""

    orientation: str  # "h" cuts between rows, "v" between columns
    position: int  # last row/column index inside block_a
    block_a: tuple[int, ...]
    block_b: tuple[int, ...]
    # block_a as a set, built once: every gate classification reads it
    in_a: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "in_a", frozenset(self.block_a))

    @property
    def n_a(self) -> int:
        return len(self.block_a)

    @property
    def n_b(self) -> int:
        return len(self.block_b)


def _make_cut(rows: int, cols: int, orientation: str, position: int) -> Cut:
    line = (lambda q: q // cols) if orientation == "h" else (lambda q: q % cols)
    qubits = range(rows * cols)
    block_a = tuple(q for q in qubits if line(q) <= position)
    block_b = tuple(q for q in qubits if line(q) > position)
    return Cut(orientation, position, block_a, block_b)


def all_cuts(circuit: Circuit) -> list[Cut]:
    """Every straight-line cut, horizontal ones first, positions ascending."""
    cuts = [_make_cut(circuit.rows, circuit.cols, "h", r) for r in range(circuit.rows - 1)]
    cuts += [_make_cut(circuit.rows, circuit.cols, "v", c) for c in range(circuit.cols - 1)]
    return cuts


def gate_block(gate: Gate, cut: Cut) -> str:
    """Classify a gate against a cut: "a", "b", or "cross"."""
    a = cut.in_a
    inside = sum(q in a for q in gate.qubits)
    if inside == len(gate.qubits):
        return "a"
    return "b" if inside == 0 else "cross"


def cross_gates(circuit: Circuit, cut: Cut) -> list[Gate]:
    """The two-qubit gates whose endpoints straddle the cut, in cycle order."""
    a = cut.in_a
    return [
        g for g in circuit.gates if len(g.qubits) == 2 and (g.qubits[0] in a) != (g.qubits[1] in a)
    ]


def choose_cut(circuit: Circuit) -> Cut:
    """Pick the cut minimizing (larger block size, cross-gate count, position).

    Full ties resolve horizontal before vertical so the choice is
    deterministic on square grids.
    """
    cuts = all_cuts(circuit)
    if not cuts:
        raise CircuitError("grid has no straight-line cut")
    return min(
        cuts,
        key=lambda c: (max(c.n_a, c.n_b), len(cross_gates(circuit, c)), c.position, c.orientation),
    )
