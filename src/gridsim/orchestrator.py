"""Filesystem-coordinated campaigns of per-prefix shard jobs.

A campaign splits one truncated hybrid run into independent jobs, one per
retained prefix, executes them in worker processes, and folds the finished
shard files into a single amplitude batch.  A worker computes its share in
row tiles of `pathsum.prefix_tile` jobs, one per-prefix `run_batched` call
each, so its jobs pay for amplitude work rather than per-call overhead;
every job still gets its own shard, bit-identical to a run of its prefix
alone.  The shard files are the only coordination channel, and one rule
decides them: a job's shard is the file its job names
(`ShardJob.filename`), and it is done exactly when that file checks out,
so a campaign killed at any point resumes by running it again over the
same directory.  A file that no job names is never read; the merge
refuses one that carries the campaign's plan hash in its name.

Shards are exact amplitude files (statevec's base64 form with a sha256 of
the payload in the header), so a merge over resumed shards is
bit-identical to an uninterrupted one.  Polling reads only headers and
checks payload digests; the merge reads each job's file once, in ascending
prefix order, and names every job whose shard fails.

The round number is the campaign's only clock: round r runs every job
still pending, so it is each such job's r-th attempt.  A shard's header
binds it to its job by plan hash and prefix, its `seconds` entry (a
finite number >= 0, or the shard does not check out) is the job's share
of its tile's time, and its `attempt` entry is the round that wrote it;
a `fault_spec` entry counts the rounds, from the first, in which that
job dies.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import resource
import time
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, circuit_hash
from .pathsum import SimPlan, prefix_tile, run_batched
from .statevec import (
    AmplitudeBatch,
    read_amplitude_header,
    read_amplitudes,
    write_amplitudes,
)

RETRY_LIMIT = 3


class CampaignError(RuntimeError):
    """A campaign could not finish: repeated job failures or bad shards."""

    def __init__(self, message: str, failed=(), exit_codes=None):
        super().__init__(message)
        self.failed = tuple(int(p) for p in failed)
        # prefix -> exit code of the worker whose share held it in the last round
        self.exit_codes = dict(exit_codes or {})


class MergeError(CampaignError):
    """A job's shard is missing or fails its checks, or a duplicate names the plan."""


def request_hash(requests) -> str:
    """Order-sensitive digest of the requested basis indices."""
    data = np.ascontiguousarray(requests, dtype=np.int64)
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def plan_hash(circuit: Circuit, plan: SimPlan, requests) -> str:
    """Digest binding a campaign to its circuit, plan parameters and requests."""
    parts = [
        circuit_hash(circuit),
        plan.cut.orientation,
        str(plan.cut.position),
        repr(float(plan.fidelity)),
        str(plan.x_p),
        str(plan.x_b),
        str(plan.seed),
        ",".join(str(r) for r in plan.radices),
        request_hash(requests),
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ShardJob:
    """Self-describing unit of campaign work: one retained prefix of one plan."""

    prefix: int
    plan_hash: str

    @property
    def filename(self) -> str:
        return f"{self.plan_hash}.{self.prefix:08x}.amp"

    @property
    def header(self) -> dict:
        """The header entries that bind a shard file to this job."""
        return {"plan": self.plan_hash, "prefix": str(self.prefix)}


def shard(circuit: Circuit, plan: SimPlan, requests) -> list[ShardJob]:
    """One job per retained prefix, each carrying the plan hash it must match."""
    fp = plan_hash(circuit, plan, requests)
    return [ShardJob(int(p), fp) for p in plan.retained]


def _job_seconds(header: dict, job: ShardJob) -> float:
    """The seconds a shard header records, once its entries bind it to
    `job` and its seconds are a finite number >= 0; ValueError says which
    check it fails."""
    if any(header.get(key) != value for key, value in job.header.items()):
        raise ValueError("header does not match the job")
    raw = header.get("seconds", "")
    try:
        seconds = float(raw)
    except ValueError:
        seconds = math.nan
    if not 0 <= seconds < math.inf:
        raise ValueError(f"seconds header {raw!r} is not a finite number >= 0")
    return seconds


def _shard_done(shard_dir: str, job: ShardJob) -> bool:
    # header and payload digest only; the amplitudes are not decoded
    try:
        _job_seconds(read_amplitude_header(os.path.join(shard_dir, job.filename)), job)
    except (OSError, ValueError):
        return False
    return True


def _scan(jobs, shard_dir: str):
    done, pending = [], []
    for job in jobs:
        (done if _shard_done(shard_dir, job) else pending).append(job.prefix)
    return done, pending


@dataclass
class CampaignStatus:
    plan_hash: str
    total: int
    done: tuple[int, ...]
    pending: tuple[int, ...]

    @property
    def complete(self) -> bool:
        return not self.pending


def status(circuit: Circuit, plan: SimPlan, requests, shard_dir: str) -> CampaignStatus:
    """Poll the shard directory; a job is done iff its file checks out."""
    jobs = shard(circuit, plan, requests)
    done, pending = _scan(jobs, shard_dir)
    return CampaignStatus(jobs[0].plan_hash, len(jobs), tuple(done), tuple(pending))


def _worker(circuit, plan, requests, jobs, attempt, shard_dir, fault_spec):
    """Child-process entry point: run assigned jobs in order, one row tile
    (`prefix_tile` jobs) per per-prefix `run_batched` call, and commit each
    job of a tile via atomic rename before the next tile is computed; each
    header carries the round number `attempt` and the tile's seconds split
    evenly among its jobs.

    fault_spec maps prefix to the number of early rounds whose run of that
    job must die mid-commit (after the temporary file, before the rename).
    It exists so tests can kill jobs exactly the way a preempted node would.
    """
    size = prefix_tile(plan, len(requests))
    for s in range(0, len(jobs), size):
        tile = jobs[s : s + size]
        start = time.perf_counter()
        prefixes = [job.prefix for job in tile]
        outs = run_batched(circuit, plan, requests, prefixes=prefixes, per_prefix=True)
        seconds = (time.perf_counter() - start) / len(tile)
        for job, out in zip(tile, outs):
            header = {**job.header, "attempt": str(attempt), "seconds": f"{seconds:.6f}"}
            final = os.path.join(shard_dir, job.filename)
            tmp = _tmp_path(final, os.getpid())
            write_amplitudes(tmp, out, digits=None, header=header)
            if attempt <= fault_spec.get(job.prefix, 0):
                os._exit(3)
            os.replace(tmp, final)


def _tmp_path(final: str, pid: int) -> str:
    return f"{final}.tmp.{pid}"


@dataclass
class CampaignResult:
    batch: AmplitudeBatch
    plan_hash: str
    wall_seconds: float
    workers: int
    per_job_seconds: dict[int, float]  # a tile's seconds, split evenly among its jobs
    child_exit_codes: list[list[int]]  # one list per round, one code per worker

    @property
    def rounds(self) -> int:
        return len(self.child_exit_codes)

    @property
    def job_seconds_total(self) -> float:
        return float(sum(self.per_job_seconds.values()))

    @property
    def job_seconds_max(self) -> float:
        return max(self.per_job_seconds.values(), default=0.0)

    def report(self, forecast_seconds: float | None = None) -> dict:
        out = {
            "plan": self.plan_hash,
            "jobs": len(self.per_job_seconds),
            "workers": self.workers,
            "rounds": self.rounds,
            "wall_seconds": round(self.wall_seconds, 6),
            "job_seconds_total": round(self.job_seconds_total, 6),
            "job_seconds_max": round(self.job_seconds_max, 6),
            "per_job_seconds": {str(p): round(s, 6) for p, s in sorted(self.per_job_seconds.items())},
            "child_exit_codes": self.child_exit_codes,
        }
        out["peak_rss_bytes"] = _peak_rss_bytes()
        if forecast_seconds is not None:
            out["forecast_seconds"] = float(forecast_seconds)
            out["actual_seconds"] = round(self.job_seconds_total, 6)
        return out


def _peak_rss_bytes() -> int:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) * 1024


def run_campaign(
    circuit: Circuit,
    plan: SimPlan,
    requests,
    shard_dir: str,
    workers: int = 1,
    retry_limit: int = RETRY_LIMIT,
    fault_spec: dict | None = None,
    report_path: str | None = None,
    forecast_seconds: float | None = None,
) -> CampaignResult:
    """Run every pending shard job, then merge the directory.

    Valid shard files already present are kept as-is, so calling this again
    after an interruption resumes the campaign.  The coordinator is a
    single-threaded poller: each round splits every pending job among the
    workers, and progress is learnt only by re-reading the shard directory
    once they exit.  At most `retry_limit + 1` rounds run; jobs still
    pending after them abort the campaign with a CampaignError that names
    every one, the exit code of its worker in the last round, and the job
    each worker stopped on (a worker runs its share in order, so it never
    reached the rest).  After each round the temporary files of this
    round's workers are removed, whether or not they were committed.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    os.makedirs(shard_dir, exist_ok=True)
    start = time.perf_counter()
    jobs = shard(circuit, plan, requests)
    by_prefix = {job.prefix: job for job in jobs}
    child_exit_codes: list[list[int]] = []
    ctx = multiprocessing.get_context("fork")
    procs: list = []
    while True:
        _, pending = _scan(jobs, shard_dir)
        if not pending:
            break
        if len(child_exit_codes) > retry_limit:
            raise _unfinished(pending, procs, len(child_exit_codes))
        assigned = [by_prefix[p] for p in pending]
        n_procs = min(workers, len(assigned))
        attempt = len(child_exit_codes) + 1
        procs = []
        for w in range(n_procs):
            share = assigned[w::n_procs]
            args = (circuit, plan, requests, share, attempt, shard_dir, fault_spec or {})
            proc = ctx.Process(target=_worker, args=args)
            proc.start()
            procs.append((proc, share))
        for proc, share in procs:
            proc.join()
            for job in share:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(_tmp_path(os.path.join(shard_dir, job.filename), proc.pid))
        child_exit_codes.append([proc.exitcode for proc, _ in procs])

    batch, per_job = _merge_verified(circuit, plan, requests, shard_dir)
    result = CampaignResult(
        batch=batch,
        plan_hash=jobs[0].plan_hash,
        wall_seconds=time.perf_counter() - start,
        workers=workers,
        per_job_seconds=per_job,
        child_exit_codes=child_exit_codes,
    )
    if report_path is not None:
        with open(report_path, "w") as f:
            json.dump(result.report(forecast_seconds), f, indent=2)
            f.write("\n")
    return result


def _unfinished(pending, last_round, rounds: int) -> CampaignError:
    # every pending job was in a share of the last round; its worker stopped
    # on the first job of the share still pending and never reached the rest
    code = {job.prefix: proc.exitcode for proc, share in last_round for job in share}
    unfinished = set(pending)
    stopped = []
    for proc, share in last_round:
        left = [job.prefix for job in share if job.prefix in unfinished]
        if left:
            stopped.append(f"{left[0]} (exit code {proc.exitcode})")
    message = (
        f"{len(pending)} shard jobs unfinished after {rounds} rounds: "
        f"workers stopped on prefixes {', '.join(stopped) or 'none'}"
    )
    if len(pending) > len(stopped):
        message += f"; {len(pending) - len(stopped)} more not reached"
    return CampaignError(message, failed=pending, exit_codes={p: code.get(p) for p in pending})


def merge(circuit: Circuit, plan: SimPlan, requests, shard_dir: str) -> AmplitudeBatch:
    """Verified fold of each job's own shard file, in ascending prefix order."""
    batch, _ = _merge_verified(circuit, plan, requests, shard_dir)
    return batch


def _merge_verified(circuit, plan, requests, shard_dir):
    jobs = shard(circuit, plan, requests)
    req = np.asarray(requests, dtype=np.int64)
    strays = sorted(set(os.listdir(shard_dir)) - {job.filename for job in jobs})
    duplicates = [n for n in strays if n.startswith(jobs[0].plan_hash + ".") and n.endswith(".amp")]
    total = AmplitudeBatch.zeros(req)
    per_job: dict[int, float] = {}
    faults: dict[int, str] = {}
    for job in jobs:  # plan.retained is sorted: ascending prefix order
        try:
            batch, header = read_amplitudes(os.path.join(shard_dir, job.filename))
            if "sha256" not in header:
                raise ValueError("not an exact shard")
            seconds = _job_seconds(header, job)
            if not np.array_equal(batch.indices, req):
                raise ValueError("answers different request indices")
        except (OSError, ValueError) as exc:
            faults[job.prefix] = "missing" if isinstance(exc, FileNotFoundError) else str(exc)
            continue
        total.amps += batch.amps
        per_job[job.prefix] = seconds
    problems = [f"prefix {p}: {why}" for p, why in faults.items()]
    problems += [f"duplicate shard file {name}" for name in duplicates]
    if problems:
        shown = "; ".join(problems[:16])
        raise MergeError(f"{len(problems)} shard faults: {shown}", failed=list(faults))
    return total, per_job
