"""Rejection sampling of output bitstrings from probability batches.

Basic rejection sampling needs M = ln(N/eps) probabilities per accepted
bitstring; the frugal variant caps the acceptance ratio at 1 and gets by
with ten, at a statistical distance that is negligible for chaotic
(Porter-Thomas distributed) outputs. Batches are committed to before any
probability is computed, via a counter-based generator, so a simulation
cannot cherry-pick easy bitstrings after the fact. The Porter-Thomas fit
is the Kolmogorov-Smirnov distance against Exp(1), computed in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_FRUGAL_M = 10  # ten probabilities per expected sample
BOOTSTRAP_RESAMPLES = 100
_BOOTSTRAP_BLOCK = 1 << 20  # bootstrap indices held at once
PT_MIN_COUNT = 10000  # fewest probabilities a Porter-Thomas fit accepts


class SamplingError(ValueError):
    pass


def plan_basic(n_qubits: int, epsilon: float) -> int:
    """Probabilities per accepted sample for basic rejection sampling.

    M = ceil(ln(N / epsilon)) bounds the expected number of entries whose
    acceptance ratio would exceed 1 by epsilon; those entries are dropped.
    """
    if n_qubits < 0:
        raise SamplingError(f"negative qubit count {n_qubits}")
    if not 0.0 < epsilon <= 1.0:
        raise SamplingError(f"epsilon must be in (0, 1], got {epsilon}")
    m = math.ceil(n_qubits * math.log(2.0) + math.log(1.0 / epsilon))
    return max(1, m)


@dataclass(frozen=True)
class SampleRequest:
    """What a sampling run is allowed to know before simulation starts."""

    n_qubits: int
    count: int  # desired number of accepted bitstrings
    mode: str = "frugal"
    epsilon: float = 1e-3  # basic-mode tail budget
    m_star: int = DEFAULT_FRUGAL_M  # frugal-mode probabilities per sample
    seed: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise SamplingError(f"need at least 1 qubit, got {self.n_qubits}")
        if self.count < 1:
            raise SamplingError(f"sample count must be >= 1, got {self.count}")
        if self.mode not in ("basic", "frugal"):
            raise SamplingError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.epsilon < 1.0:
            raise SamplingError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.m_star < 1:
            raise SamplingError(f"M' must be >= 1, got {self.m_star}")

    @property
    def n_states(self) -> int:
        return 1 << self.n_qubits

    @property
    def probs_per_sample(self) -> int:
        if self.mode == "basic":
            return plan_basic(self.n_qubits, self.epsilon)
        return self.m_star

    @property
    def batch_size(self) -> int:
        return self.count * self.probs_per_sample


def _philox(seed: int, lane: int) -> np.random.Generator:
    # separate, reproducible streams: lane 0 commits indices, 1 accepts,
    # 2 bootstraps; chunk offsets advance the counter inside a lane
    return np.random.Generator(np.random.Philox(key=[seed, lane]))


def committed_indices(req: SampleRequest, offset: int = 0) -> np.ndarray:
    """The batch of bitstring indices the run is committed to, pre-simulation.

    Counter-based, so chunk `offset` can be drawn without generating the
    earlier chunks; uniform with replacement over all N basis states.
    """
    if offset < 0:
        raise SamplingError(f"negative chunk offset {offset}")
    gen = _philox(req.seed, 0)
    if offset:
        # masked bounded draws consume one 32-bit word each (one 64-bit word
        # past 32 qubits); a counter block holds 8 (resp. 4), so jump whole
        # blocks and burn the remainder to land exactly at draw `offset`
        per_block = 8 if req.n_states <= (1 << 32) else 4
        blocks, rest = divmod(offset, per_block)
        if blocks:
            gen.bit_generator.advance(blocks)
        if rest:
            gen.integers(0, req.n_states, size=rest, dtype=np.int64)
    return gen.integers(0, req.n_states, size=req.batch_size, dtype=np.int64)


@dataclass
class SampleSet:
    """Accepted bitstrings plus the batch-level error statistics."""

    indices: np.ndarray  # accepted basis indices, batch order
    n_qubits: int
    accepted_count: int
    measured_tail_mass: float  # mass sitting above the acceptance cap

    @property
    def bitstrings(self) -> list:
        fmt = f"0{self.n_qubits}b"
        return [format(int(i), fmt) for i in self.indices]


def _check_batch(indices, probs, per_sample: int):
    indices = np.asarray(indices, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    if indices.shape != probs.shape or probs.ndim != 1:
        raise SamplingError("indices and probs must be parallel 1-d arrays")
    if probs.size == 0 or probs.size % per_sample:
        raise SamplingError(
            f"batch of {probs.size} is not a multiple of {per_sample} probabilities per sample"
        )
    if np.any(probs < 0):
        raise SamplingError("negative probability in batch")
    return indices, probs


def _rejection_sample(req: SampleRequest, indices, probs, m: int, drop_tail: bool) -> SampleSet:
    # accept with min{1, p*N/m}: as u < 1, that is u < p*N/m; with
    # drop_tail, entries above m/N are rejected
    indices, probs = _check_batch(indices, probs, m)
    n_states = req.n_states
    cap = m / n_states
    u = _philox(req.seed, 1).random(probs.size)
    accept = u < probs * n_states / m
    if drop_tail:
        accept &= probs <= cap
    tail = float(probs[probs > cap].sum() * n_states / probs.size)
    return SampleSet(indices[accept], req.n_qubits, int(accept.sum()), tail)


def sample_basic(req: SampleRequest, indices, probs) -> SampleSet:
    """Frugal sampling at M = plan_basic(n, epsilon), with entries above M/N dropped.

    The dropped mass is what plan_basic's epsilon budgeted for; it is
    reported as measured_tail_mass rather than silently lost.
    """
    m = plan_basic(req.n_qubits, req.epsilon)
    return _rejection_sample(req, indices, probs, m, drop_tail=True)


def sample_frugal(req: SampleRequest, indices, probs) -> SampleSet:
    """Accept with min{1, p*N/M'}; nothing is ever dropped.

    Shares the acceptance stream with sample_basic, so on one batch the
    frugal accepts are a superset of the basic ones whenever M' <= M.
    """
    return _rejection_sample(req, indices, probs, req.m_star, drop_tail=False)


def sample(req: SampleRequest, indices, probs) -> SampleSet:
    if req.mode == "basic":
        return sample_basic(req, indices, probs)
    return sample_frugal(req, indices, probs)


@dataclass
class TailEstimate:
    estimate: float
    sigma: float  # bootstrap standard error
    threshold: float  # M'/N
    resamples: int


def tail_mass(
    probs,
    n_qubits: int,
    m_star: int = DEFAULT_FRUGAL_M,
    resamples: int = BOOTSTRAP_RESAMPLES,
    seed: int = 0,
) -> TailEstimate:
    """Unbiased estimate of the output mass above M'/N from a uniform batch.

    (N / batch) * sum of p over entries with p > M'/N; the batch indices
    must have been drawn uniformly for the estimator to be unbiased.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size == 0:
        raise SamplingError("need a non-empty 1-d probability batch")
    n_states = float(1 << n_qubits)
    threshold = m_star / n_states
    contrib = np.where(probs > threshold, probs, 0.0)
    scale = n_states / probs.size
    estimate = float(contrib.sum() * scale)
    gen = _philox(seed, 2)
    # blocks of rows drawn in turn repeat one (resamples, size) draw exactly,
    # while memory stays near _BOOTSTRAP_BLOCK picks
    rows = max(1, _BOOTSTRAP_BLOCK // probs.size)
    boots = np.empty(resamples)
    for start in range(0, resamples, rows):
        stop = min(start + rows, resamples)
        picks = gen.integers(0, probs.size, size=(stop - start, probs.size))
        boots[start:stop] = contrib[picks].sum(axis=1)
    boots *= scale
    return TailEstimate(estimate, float(boots.std()), threshold, resamples)


def frugal_tv_bound(m_star: int = DEFAULT_FRUGAL_M) -> float:
    """Statistical-distance bound for frugal sampling of a Porter-Thomas state."""
    return 2.0 * math.exp(-m_star / (1.0 - math.exp(-m_star)))


@dataclass
class PTFit:
    ks_statistic: float
    n_samples: int
    mean_probability: float


def porter_thomas_fit(probs) -> PTFit:
    """Kolmogorov-Smirnov distance of N*p against the Exp(1) law.

    Probabilities are rescaled by their measured mean, so approximate
    (sub-normalized) states are compared by shape, not scale. A flat
    distribution comes out near 0.63, far above any chaotic-state value.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size < PT_MIN_COUNT:
        raise SamplingError(f"need at least {PT_MIN_COUNT} probabilities, got {probs.size}")
    mean = float(probs.mean())
    if mean <= 0.0:
        raise SamplingError("batch has no probability mass")
    # the one-sample KS statistic over the sorted batch: the larger gap of
    # the Exp(1) cdf below the upper and above the lower empirical step
    cdf = -np.expm1(-np.maximum(np.sort(probs) / mean, 0.0))
    steps = np.arange(probs.size + 1) / probs.size
    ks = max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max())
    return PTFit(float(ks), probs.size, mean)
