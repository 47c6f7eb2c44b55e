"""Simulator suite for random universal circuits on planar qubit grids.

Two engines compute amplitudes of the same circuits with one set of gate
kernels: an exact state vector (statevec) and a cut-based truncated path
sum whose fidelity is the retained fraction of paths (pathsum). Around them
sit a hardened benchmark generator (benchgen), frugal rejection sampling of
output bitstrings (sampler), a runtime and dollar cost model (costmodel), a
filesystem-coordinated job orchestrator (orchestrator), and an interactive
claim verifier (validate).
"""

from .circuit import (
    Circuit,
    CircuitError,
    Cut,
    Gate,
    GateKind,
    choose_cut,
    circuit_hash,
    parse_circuit,
    serialize_circuit,
)
from .statevec import AmplitudeBatch, StateBlock, fetch_amplitudes, run_full
from .pathsum import (
    SimPlan,
    estimate_fidelity,
    make_plan,
    run_approx,
    schmidt_decompose,
)
from .benchgen import GenSpec, HardnessReport, audit, generate
from .sampler import SampleRequest, plan_basic, sample_basic, sample_frugal, tail_mass
from .costmodel import BenchResult, CostParams, calibrate, forecast
from .orchestrator import merge, run_campaign, shard, status
from .validate import Challenge, claimant_round, issue_challenge, verifier_round

__version__ = "0.1.0"

__all__ = [
    "AmplitudeBatch",
    "BenchResult",
    "Challenge",
    "Circuit",
    "CircuitError",
    "CostParams",
    "Cut",
    "Gate",
    "GateKind",
    "GenSpec",
    "HardnessReport",
    "SampleRequest",
    "SimPlan",
    "StateBlock",
    "audit",
    "calibrate",
    "choose_cut",
    "circuit_hash",
    "claimant_round",
    "estimate_fidelity",
    "fetch_amplitudes",
    "forecast",
    "generate",
    "issue_challenge",
    "make_plan",
    "merge",
    "parse_circuit",
    "plan_basic",
    "run_approx",
    "run_campaign",
    "run_full",
    "sample_basic",
    "sample_frugal",
    "schmidt_decompose",
    "serialize_circuit",
    "shard",
    "status",
    "tail_mass",
    "verifier_round",
    "__version__",
]
