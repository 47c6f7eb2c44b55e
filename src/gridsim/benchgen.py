"""Random-circuit benchmark generator and hardness audit.

Circuits follow the planar-grid recipe: an opening cycle of Hadamards, d
working cycles that tile every nearest-neighbor pair with a two-qubit
gate once per eight cycles, and one-qubit gates filling idle qubits.
The v2 rule set hardens the output against diagonal-gate simplification:
no T directly after a two-qubit gate on the same qubit, an explicit
closing cycle of Hadamards, and working cycles that alternate horizontal
and vertical two-qubit layers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    ONE_QUBIT_KINDS,
    TWO_QUBIT_KINDS,
    all_cuts,
    choose_cut,
    cross_gates,
)
from .pathsum import schmidt_decompose

_FILL_GATES = (GateKind.T, GateKind.X_HALF, GateKind.Y_HALF)


@dataclass(frozen=True)
class GenSpec:
    """Everything that determines a generated instance, including the seed."""

    rows: int
    cols: int
    depth: int  # number of working cycles between the Hadamard layers
    version: str = "v2"
    two_qubit: GateKind = GateKind.CZ
    seed: int = 0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1 or self.rows * self.cols < 2:
            raise CircuitError(f"grid {self.rows}x{self.cols} too small")
        if self.depth < 1:
            raise CircuitError(f"depth must be positive, got {self.depth}")
        if self.version not in ("v1", "v2"):
            raise CircuitError(f"unknown version {self.version!r}")
        if self.two_qubit not in (GateKind.CZ, GateKind.ISWAP):
            raise CircuitError(f"two-qubit kind must be cz or is, got {self.two_qubit}")


def instance_filename(spec: GenSpec) -> str:
    return f"inst_{spec.rows}x{spec.cols}_{spec.depth + 1}_{spec.seed}.txt"


def _pattern_pairs(rows: int, cols: int, orientation: str, k: int):
    """One of the eight two-qubit layers.

    Horizontal layer k pairs (r, c)-(r, c+1) where (c + 2*(r % 2)) % 4 == k;
    vertical layer k pairs (r, c)-(r+1, c) where (r + 2*(c % 2)) % 4 == k.
    The stagger offsets odd rows (columns) by two, so each layer touches
    every row, and the eight layers cover each nearest-neighbor pair once.
    """
    pairs = []
    if orientation == "h":
        for r in range(rows):
            for c in range(cols - 1):
                if (c + 2 * (r % 2)) % 4 == k:
                    pairs.append((r * cols + c, r * cols + c + 1))
    else:
        for r in range(rows - 1):
            for c in range(cols):
                if (r + 2 * (c % 2)) % 4 == k:
                    pairs.append((r * cols + c, (r + 1) * cols + c))
    return pairs


# v1 runs the horizontal layers back to back; v2 interleaves orientations.
_V1_ORDER = [
    ("h", 1), ("h", 3), ("h", 0), ("h", 2),
    ("v", 0), ("v", 2), ("v", 1), ("v", 3),
]
_V2_ORDER = [
    ("h", 0), ("v", 1), ("h", 1), ("v", 0),
    ("h", 2), ("v", 3), ("h", 3), ("v", 2),
]


def layer_schedule(rows: int, cols: int, version: str) -> list[list[tuple[int, int]]]:
    """The eight two-qubit layers in the order the working cycles use them."""
    order = _V2_ORDER if version == "v2" else _V1_ORDER
    return [_pattern_pairs(rows, cols, *key) for key in order]


def _v1_fill(previous: GateKind | None, rng) -> GateKind:
    """A first T, then any fill gate but the qubit's previous one."""
    if previous is None:
        return GateKind.T
    options = [g for g in _FILL_GATES if g is not previous]
    return options[int(rng.integers(len(options)))]


def generate(spec: GenSpec) -> Circuit:
    """Deterministic instance for a GenSpec; the seed drives only gate fills.

    One-qubit fills react to what the qubit did in the previous cycle.
    v2: a two-qubit gate is followed by a random non-diagonal X or Y root,
    any other gate (the opening H included) is followed by a T, and a T is
    followed by nothing until the next two-qubit gate restarts the chain.
    v1: fills appear only right after a two-qubit gate on the qubit; the
    first is a T, later ones are drawn from {T, X half, Y half} minus the
    qubit's previous one-qubit gate.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.rows * spec.cols
    layers = layer_schedule(spec.rows, spec.cols, spec.version)
    gates = [Gate(0, GateKind.H, (q,)) for q in range(n)]

    last_kind: list[GateKind] = [GateKind.H] * n  # gate in the previous cycle, if any
    last_cycle = [0] * n
    last_1q: list[GateKind | None] = [None] * n  # most recent non-H one-qubit gate

    def place(q: int, kind: GateKind) -> None:
        gates.append(Gate(cycle, kind, (q,)))
        last_kind[q] = kind
        last_cycle[q] = cycle
        last_1q[q] = kind

    for t in range(spec.depth):
        cycle = t + 1
        pairs = layers[t % 8]
        busy = set()
        start = len(gates)
        for a, b in pairs:
            gates.append(Gate(cycle, spec.two_qubit, (a, b)))
            busy.add(a)
            busy.add(b)
        for q in range(n):
            if q in busy:
                last_kind[q] = spec.two_qubit
                last_cycle[q] = cycle
                continue
            if last_cycle[q] != cycle - 1:
                continue  # resting; only the two-qubit layer wakes the qubit
            prev = last_kind[q]
            if spec.version == "v2":
                if prev is GateKind.T:
                    continue  # a T ends the fill chain
                if prev in TWO_QUBIT_KINDS:
                    kind = (GateKind.X_HALF, GateKind.Y_HALF)[int(rng.integers(2))]
                else:
                    kind = GateKind.T
            else:
                if prev not in TWO_QUBIT_KINDS:
                    continue  # v1 fills only directly after a two-qubit gate
                kind = _v1_fill(last_1q[q], rng)
            place(q, kind)
        if len(gates) == start:
            # Degenerate small grids can starve a cycle; keep cycles contiguous.
            for q in range(n):
                place(q, _v1_fill(last_1q[q], rng))

    if spec.version == "v2":  # only v2 closes with a Hadamard layer
        final = spec.depth + 1
        gates += [Gate(final, GateKind.H, (q,)) for q in range(n)]
    return Circuit(spec.rows, spec.cols, gates)


@dataclass
class HardnessReport:
    """What the audit saw; every field is derived from the circuit alone."""

    n_qubits: int
    n_cycles: int
    total_gates: int
    t_count: int
    two_qubit_count: int
    czt_runs: int  # CZ at t, T at t+1, CZ at t+2 on one qubit
    has_final_h: bool
    repeat_violations: int  # identical one-qubit gate twice in a row on a qubit
    cut_orientation: str
    cut_position: int
    block_sizes: tuple[int, int]
    cross_gates: int
    path_space: int
    per_cut_cross: list[tuple[str, int, int]] = field(default_factory=list)

    def as_dict(self) -> dict:
        d = dict(self.__dict__)
        d["block_sizes"] = list(self.block_sizes)
        d["per_cut_cross"] = [list(t) for t in self.per_cut_cross]
        return d


def audit(circuit: Circuit) -> HardnessReport:
    """Measure the hardness-relevant structure of a circuit.

    Reports diagonal CZ-T-CZ runs, the closing Hadamard layer, T count,
    the chosen cut with its cross-gate count and path-space
    size, and violations of the no-repeat rule for one-qubit fills.
    """
    n = circuit.n_qubits
    cycles = circuit.n_cycles
    occupancy: dict[tuple[int, int], GateKind] = {}
    t_count = 0
    two_q = 0
    for g in circuit.gates:
        for q in g.qubits:
            occupancy[(q, g.cycle)] = g.kind
        if g.kind is GateKind.T:
            t_count += 1
        if g.kind in TWO_QUBIT_KINDS:
            two_q += 1

    czt = 0
    repeats = 0
    fills = ONE_QUBIT_KINDS - {GateKind.H}
    for q in range(n):
        for t in range(cycles - 2):
            if (
                occupancy.get((q, t)) is GateKind.CZ
                and occupancy.get((q, t + 1)) is GateKind.T
                and occupancy.get((q, t + 2)) is GateKind.CZ
            ):
                czt += 1
        # no-repeat rule: the same one-qubit gate in back-to-back cycles
        for t in range(cycles - 1):
            a = occupancy.get((q, t))
            if a in fills and occupancy.get((q, t + 1)) is a:
                repeats += 1

    final_h = cycles >= 2 and all(occupancy.get((q, cycles - 1)) is GateKind.H for q in range(n))

    chosen = choose_cut(circuit)
    cross = cross_gates(circuit, chosen)
    space = math.prod(schmidt_decompose(g).rank for g in cross)
    per_cut = [
        (c.orientation, c.position, len(cross_gates(circuit, c))) for c in all_cuts(circuit)
    ]
    return HardnessReport(
        n_qubits=n,
        n_cycles=cycles,
        total_gates=len(circuit.gates),
        t_count=t_count,
        two_qubit_count=two_q,
        czt_runs=czt,
        has_final_h=final_h,
        repeat_violations=repeats,
        cut_orientation=chosen.orientation,
        cut_position=chosen.position,
        block_sizes=(chosen.n_a, chosen.n_b),
        cross_gates=len(cross),
        path_space=space,
        per_cut_cross=per_cut,
    )
