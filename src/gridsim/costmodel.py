"""Runtime, memory, and price forecasting for hybrid simulation campaigns.

The campaign cost model is

    T_tot = C1 * f * 2^x_p * (q1*2^q1 + q2*2^q2) * (d_p + C2 * 2^x_b * d_b)
          + C3 * 2^(x_p+x_b) * n_a

seconds of single-core work: one term for carrying both blocks through the
circuit across all retained prefix jobs and branch replays, one for
collecting n_a requested amplitudes per path. The amplitude term is kept
independent of f on purpose, as the truncated runs measured here still pay
full collection cost on every retained path; at f = 1 the two readings
coincide. Constants C1-C3 are implementation and machine specific and come
from a least-squares calibration against measured runs.

Billable time divides total work across p processes per node under a
contention factor omega(p); wallclock divides again by the node count.
Memory per process is the working pair of block vectors (times a small
copy multiplier for the per-branch copies) plus the amplitude collection
buffer.

The law is written in 2^x_p prefixes and 2^x_b branches. A plan enters it
through one mapping, `plan_law_args`, in `gridsim plan` and in
`BenchResult.from_plan` alike: a plan whose cross gates have radix other
than 2 (iSWAP has 4) enters with x_p and x_b the log2 of its prefix and
branch spaces.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import ClassVar

import numpy as np


class CostModelError(ValueError):
    pass


DEFAULT_RATE_FILE = "rates_2018_06.json"


def load_rate_card(path: str | None = None) -> dict:
    """Machine type -> {vcpus, ram_gib, price_per_hour}.

    Without a path, loads the bundled sample card (cloud list prices,
    effective 2018-06; replace with current prices for real planning).
    """
    if path is None:
        text = resources.files("gridsim.data").joinpath(DEFAULT_RATE_FILE).read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    card = json.loads(text)
    machines = card.get("machines", card)
    for name, row in machines.items():
        if "price_per_hour" not in row:
            raise CostModelError(f"rate card entry {name!r} lacks price_per_hour")
    return machines


_DEFAULT_OMEGA = {1: 1.0, 2: 1.05, 4: 1.15, 8: 1.3, 16: 1.55, 32: 1.8, 64: 2.0}


@dataclass
class CostParams:
    """Calibrated constants plus pricing context for forecasts."""

    C4: ClassVar[int] = 2  # row tile + per-branch copy
    bytes_per_amplitude: ClassVar[int] = 8  # one complex64

    C1: float
    C2: float
    C3: float
    omega: dict = field(default_factory=lambda: dict(_DEFAULT_OMEGA))
    rate_card: dict = field(default_factory=load_rate_card)

    def __post_init__(self):
        # written so that NaN fails each test
        if not (0 < self.C1 < math.inf and 0 <= self.C2 < math.inf and 0 <= self.C3 < math.inf):
            raise CostModelError(
                f"constants must be finite, C1 > 0 and C2, C3 >= 0, "
                f"got C1={self.C1} C2={self.C2} C3={self.C3}"
            )
        pts = sorted(self.omega.items())
        if not pts or pts[0][0] != 1 or pts[0][1] != 1.0:
            raise CostModelError("omega table must anchor omega(1) = 1")
        vals = [v for _, v in pts]
        if any(b < a for a, b in zip(vals, vals[1:])) or min(vals) < 1.0:
            raise CostModelError("omega must be >= 1 and non-decreasing")

    def omega_at(self, p: int) -> float:
        if p < 1:
            raise CostModelError(f"process count must be >= 1, got {p}")
        pts = sorted(self.omega.items())
        xs = np.array([k for k, _ in pts], dtype=float)
        ys = np.array([v for _, v in pts], dtype=float)
        return float(np.interp(float(p), xs, ys))


def work_terms(f, q1, q2, d_p, d_b, x_p, x_b, n_a) -> tuple[float, float, float]:
    """The three terms of the work law, which C1, C1*C2 and C3 multiply:
    prefix-phase gate work, branch-phase gate work and amplitude collection.
    The law's domain: f in (0, 1], both blocks at least one qubit, every
    other dimension nonnegative."""
    if not 0 < f <= 1:
        raise CostModelError(f"fidelity fraction must be in (0, 1], got {f}")
    if min(q1, q2) < 1 or min(d_p, d_b, x_p, x_b, n_a) < 0:
        dims = dict(q1=q1, q2=q2, d_p=d_p, d_b=d_b, x_p=x_p, x_b=x_b, n_a=n_a)
        raise CostModelError(f"empty block or negative dimension in {dims}")
    w = q1 * 2.0**q1 + q2 * 2.0**q2
    jobs = f * 2.0**x_p
    return jobs * w * d_p, jobs * w * 2.0**x_b * d_b, 2.0 ** (x_p + x_b) * n_a


def plan_law_args(plan) -> dict:
    """A plan's inputs to the law under the law's own names; x_p and x_b are
    the log2 of its prefix and branch spaces, which equal its digit counts
    only when every radix is 2."""
    return dict(f=plan.fidelity, q1=plan.cut.n_a, q2=plan.cut.n_b, d_p=plan.d_p, d_b=plan.d_b,
                x_p=math.log2(plan.prefix_space), x_b=math.log2(plan.branch_space))


@dataclass(frozen=True)
class BenchResult:
    """One measured campaign-equivalent run for calibration.

    `seconds` of a single-prefix run are time on one CPU, as campaign jobs
    run. A run_batched call over several row tiles runs up to two of them
    at once, one per CPU, so its `seconds` are wall time on those CPUs, not
    the single-core work the law prices. `M_proc` prices one campaign
    process, whose single tile runs on one thread.
    """

    q1: int
    q2: int
    d_p: int
    d_b: int
    x_p: float  # log2 of the prefix space
    x_b: float  # log2 of the branch space
    f: float
    n_a: int
    seconds: float

    def __post_init__(self):
        self.design_row()  # the law's own domain check
        if self.seconds <= 0:
            raise CostModelError(f"measured time must be positive, got {self.seconds}")

    @classmethod
    def from_plan(cls, plan, n_a: int, seconds: float) -> "BenchResult":
        return cls(**plan_law_args(plan), n_a=n_a, seconds=seconds)

    def design_row(self) -> tuple[float, float, float]:
        return work_terms(
            self.f, self.q1, self.q2, self.d_p, self.d_b, self.x_p, self.x_b, self.n_a
        )


@dataclass
class CalibrationReport:
    params: CostParams
    rel_residual: float  # rms of (predicted - measured) / measured
    per_run: list  # relative residual per input run


def calibrate(bench_results) -> CalibrationReport:
    """Fit C1, C2, C3 to measured runs.

    The model is linear in (C1, C1*C2, C3), so a relative-error weighted
    least squares recovers the constants directly; rows are divided by
    their measured time, which stops long runs from drowning short ones.
    """
    runs = list(bench_results)
    if len(runs) < 3:
        raise CostModelError(f"need at least 3 measured runs, got {len(runs)}")
    design = np.array([r.design_row() for r in runs], dtype=float)
    t = np.array([r.seconds for r in runs], dtype=float)
    weighted = design / t[:, None]
    if np.linalg.matrix_rank(weighted) < 3:
        raise CostModelError(
            "measured runs do not separate the model terms; vary depth split, "
            "branch digits, and amplitude count"
        )
    coef, *_ = np.linalg.lstsq(weighted, np.ones(len(runs)), rcond=None)
    c1, c1c2, c3 = (float(v) for v in coef)
    if c1 <= 0 or c1c2 < 0 or c3 < 0:
        raise CostModelError(f"fit produced non-physical constants {coef}")
    params = CostParams(C1=c1, C2=c1c2 / c1, C3=c3)
    pred = design @ coef
    rel = (pred - t) / t
    return CalibrationReport(params, float(np.sqrt(np.mean(rel**2))), [float(v) for v in rel])


@dataclass
class Forecast:
    """Resource forecast for one campaign configuration."""

    T_tot: float  # single-core hours
    T_bill: float  # node hours billed
    T_clock: float  # wallclock hours
    M_proc: int  # bytes per process
    M_node: int  # bytes per node
    M_cluster: int  # bytes across the cluster
    cost: float  # currency units for T_bill
    machine: str


def total_seconds(
    params: CostParams,
    f: float,
    q1: int,
    q2: int,
    d_p: int,
    d_b: int,
    x_p: int,
    x_b: int,
    n_a: int,
) -> float:
    prefix_work, branch_work, collect = work_terms(f, q1, q2, d_p, d_b, x_p, x_b, n_a)
    return params.C1 * (prefix_work + params.C2 * branch_work) + params.C3 * collect


def forecast(
    params: CostParams,
    f: float,
    q1: int,
    q2: int,
    d_p: int,
    d_b: int,
    x_p: int,
    x_b: int,
    n_a: int,
    p: int = 1,
    n_nodes: int = 1,
    machine: str | None = None,
) -> Forecast:
    """Evaluate the cost model and price billable hours against the rate card.

    p processes share each of n_nodes nodes; contention multiplies total
    work by omega(p) before it is divided across the p processes.
    """
    if p < 1 or n_nodes < 1:
        raise CostModelError("need at least one process and one node")
    if machine is None:
        machine = next(iter(sorted(params.rate_card)))
    if machine not in params.rate_card:
        known = ", ".join(sorted(params.rate_card))
        raise CostModelError(f"unknown machine type {machine!r}; rate card has: {known}")
    t_tot = total_seconds(params, f, q1, q2, d_p, d_b, x_p, x_b, n_a) / 3600.0
    t_bill = params.omega_at(p) * t_tot / p
    t_clock = t_bill / n_nodes
    m_proc = int((params.C4 * (2**q1 + 2**q2) + n_a) * params.bytes_per_amplitude)
    m_node = p * m_proc
    m_cluster = n_nodes * m_node
    price = float(params.rate_card[machine]["price_per_hour"])
    return Forecast(t_tot, t_bill, t_clock, m_proc, m_node, m_cluster, t_bill * price, machine)
