"""Interactive verifier/claimant check of a claimed simulation.

The verifier never needs the exact answer.  It asks for amplitudes at k
reproducible pseudo-random indices, simulates its own truncated state at a
secret fidelity f1 with a secret retained-path seed on the cut with the
fewest cross gates, and checks that the overlap-based fidelity estimate of
the claimed amplitudes against that state lands within delta of f1.  A
claimant returning the true amplitudes concentrates at f1; a claimant
guessing, or reusing a low-fidelity state, lands near zero.  Repeating
rounds with fresh verifier states compounds the cheat-detection odds.

Transport is two files: a challenge as JSON (the secret fidelity is never
written) and a response in the standard amplitude text format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Cut, all_cuts, circuit_hash, count_cross_gates
from .pathsum import estimate_fidelity, make_plan, run_approx, seeded_subset
from .statevec import AmplitudeBatch, fetch_amplitudes, run_full

DEFAULT_F1_BAND = (0.05, 0.25)
DEFAULT_DELTA = 0.03
CLAIMANT_ENGINES = ("exact", "hybrid", "random")


class ValidationError(ValueError):
    pass


@dataclass(frozen=True)
class Challenge:
    """What the verifier sends, plus the secret it keeps.

    f1 is the verifier's private fidelity; it is None on the claimant side
    and is never serialized.
    """

    circuit_hash: str
    k: int
    index_seed: int
    delta: float
    f1: float | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"challenge needs k >= 1 indices, got {self.k}")
        if not 0 < self.delta:
            raise ValidationError(f"delta must be positive, got {self.delta}")
        if self.f1 is not None:
            if not 0 < self.f1 < 1:
                raise ValidationError(f"f1 must lie strictly inside (0, 1), got {self.f1}")
            if self.delta > self.f1:
                raise ValidationError(
                    f"delta {self.delta} exceeds f1 {self.f1}; the test could never fail"
                )

    def public_dict(self) -> dict:
        return {
            "circuit_hash": self.circuit_hash,
            "k": self.k,
            "index_seed": self.index_seed,
            "delta": self.delta,
        }


def challenge_indices(n_qubits: int, k: int, index_seed: int) -> np.ndarray:
    """The k distinct basis indices defined by (index_seed, k, n), sorted."""
    n_states = 1 << n_qubits
    if k > n_states:
        raise ValidationError(f"cannot pick {k} distinct indices from {n_states} states")
    return seeded_subset(n_states, k, index_seed)


def issue_challenge(
    circuit: Circuit,
    k: int,
    delta: float = DEFAULT_DELTA,
    seed: int = 0,
    f1: float | None = None,
    f1_band: tuple[float, float] = DEFAULT_F1_BAND,
) -> Challenge:
    """Build a challenge; draws the secret f1 from f1_band when not given."""
    if k > (1 << circuit.n_qubits):
        raise ValidationError(
            f"k={k} exceeds the {1 << circuit.n_qubits}-state space of this circuit"
        )
    if f1 is None:
        lo, hi = f1_band
        f1 = float(np.random.default_rng([seed, 1]).uniform(lo, hi))
    return Challenge(circuit_hash(circuit), k, seed, delta, f1)


def write_challenge(path, ch: Challenge) -> None:
    """Serialize the public half of a challenge; f1 stays with the verifier."""
    with open(path, "w") as f:
        json.dump(ch.public_dict(), f, indent=2)
        f.write("\n")


def read_challenge(path) -> Challenge:
    with open(path) as f:
        data = json.load(f)
    try:
        return Challenge(
            circuit_hash=str(data["circuit_hash"]),
            k=int(data["k"]),
            index_seed=int(data["index_seed"]),
            delta=float(data["delta"]),
        )
    except KeyError as exc:
        raise ValidationError(f"challenge file lacks field {exc}")


def verifier_cut(circuit: Circuit) -> Cut:
    """The cut with the fewest cross gates, smaller blocks breaking ties.

    The default simulation cut balances block sizes for memory; a verifier
    wants the opposite trade. Fewer cross gates means fewer, fatter paths,
    and the fidelity of its truncated state concentrates much more tightly
    on the retained fraction, which is exactly what the pass rule needs.
    """
    return min(
        all_cuts(circuit),
        key=lambda c: (
            count_cross_gates(circuit, c),
            max(c.n_a, c.n_b),
            c.orientation,
            c.position,
        ),
    )


def claimant_round(
    circuit: Circuit,
    ch: Challenge,
    engine: str = "exact",
    fidelity: float = 1.0,
    seed: int = 0,
) -> AmplitudeBatch:
    """Produce the response amplitudes with the chosen engine.

    "exact" replays the full state vector, "hybrid" runs the truncated
    path sum at `fidelity`, and "random" stands in for a claimant that
    never simulated anything.
    """
    if circuit_hash(circuit) != ch.circuit_hash:
        raise ValidationError("challenge was issued for a different circuit")
    indices = challenge_indices(circuit.n_qubits, ch.k, ch.index_seed)
    if engine == "exact":
        return fetch_amplitudes(run_full(circuit), indices)
    if engine == "hybrid":
        plan = make_plan(circuit, fidelity=fidelity, seed=seed)
        return run_approx(circuit, plan, indices)
    if engine == "random":
        rng = np.random.default_rng(seed)
        scale = 2.0 ** (-circuit.n_qubits / 2)
        amps = scale * (rng.normal(size=ch.k) + 1j * rng.normal(size=ch.k))
        return AmplitudeBatch(indices, amps)
    raise ValidationError(f"unknown claimant engine {engine!r}; use one of {CLAIMANT_ENGINES}")


@dataclass(frozen=True)
class RoundResult:
    passed: bool
    f_e: float
    f1: float  # requested secret fidelity
    f1_realized: float  # retained prefix fraction (not the state's norm); the pass anchor
    delta: float


def verifier_round(
    circuit: Circuit,
    ch: Challenge,
    claimant_amps: AmplitudeBatch,
    path_seed: int | None = None,
    cut: Cut | None = None,
) -> RoundResult:
    """Score a response against a fresh secret truncated state.

    The verifier runs the hybrid engine at its secret f1 with a fresh
    retained-path seed on `cut`, by default verifier_cut(circuit), and
    estimates fidelity with the claimant batch as the reference. Retention
    is quantized, so the round passes iff f_e is within delta of the
    plan's retained fraction (equal to f1 up to half a retention step).
    """
    if ch.f1 is None:
        raise ValidationError("verifier_round needs the private challenge (f1 is unset)")
    if circuit_hash(circuit) != ch.circuit_hash:
        raise ValidationError("challenge was issued for a different circuit")
    indices = challenge_indices(circuit.n_qubits, ch.k, ch.index_seed)
    if not np.array_equal(np.asarray(claimant_amps.indices), indices):
        raise ValidationError("response does not cover exactly the challenge indices")
    if path_seed is None:
        path_seed = int(np.random.default_rng().integers(1 << 62))
    plan = make_plan(circuit, fidelity=ch.f1, seed=path_seed, cut=cut or verifier_cut(circuit))
    verifier_state = run_approx(circuit, plan, indices)
    f_e = estimate_fidelity(claimant_amps, verifier_state)
    passed = bool(abs(f_e - plan.retained_fraction) <= ch.delta)
    return RoundResult(passed, f_e, ch.f1, plan.retained_fraction, ch.delta)


def calibrate_delta(
    circuit: Circuit,
    k: int,
    rounds: int = 20,
    seed: int = 0,
    f1_band: tuple[float, float] = DEFAULT_F1_BAND,
    cut: Cut | None = None,
    floor: float = 1e-3,
) -> float:
    """Three standard deviations of the honest-replay residual at this k.

    Runs `rounds` full verifier rounds against the true amplitudes, each
    with a fresh f1 and retained-path seed, and returns 3 sigma of
    f_e - f1_realized, floored to keep a degenerate-zero spread usable.
    This is the recommended delta for challenges at this k.
    """
    if rounds < 2:
        raise ValidationError("calibration needs at least 2 rounds")
    state = run_full(circuit)
    rng = np.random.default_rng([seed, 2])
    residuals = []
    for r in range(rounds):
        ch = issue_challenge(
            circuit, k, delta=1e-12, seed=seed + r, f1=None, f1_band=f1_band
        )
        indices = challenge_indices(circuit.n_qubits, k, ch.index_seed)
        claimant = fetch_amplitudes(state, indices)
        # only the residual is recorded, so the pass verdict at delta is unused
        result = verifier_round(
            circuit, ch, claimant, path_seed=int(rng.integers(1 << 62)), cut=cut
        )
        residuals.append(result.f_e - result.f1_realized)
    return float(max(3.0 * np.std(residuals), floor))
