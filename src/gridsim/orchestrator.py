"""Filesystem-coordinated campaigns of per-prefix shard jobs.

A campaign splits one truncated hybrid run into independent jobs, one per
retained prefix, executes them in worker processes, and folds the finished
shard files into a single amplitude batch.  The shard files are the only
coordination channel, and one rule decides them: a job's shard is the file
its job names (`ShardJob.filename`), and it is done exactly when that file
checks out, so a campaign killed at any point resumes by running it again
over the same directory.  A file that no job names is never read; the
merge refuses one that carries the campaign's plan hash in its name.

Shards are exact amplitude files (statevec's base64 form with a sha256 of
the payload in the header), so a merge over resumed shards is
bit-identical to an uninterrupted one.  Polling reads only headers and
checks payload digests; the merge reads each job's file once, in ascending
prefix order, and names every job whose shard fails.

The round number is the campaign's only clock: round r runs every job
still pending, so it is each such job's r-th attempt.  A shard's header
binds it to its job by plan hash and prefix, and its `attempt` entry is
the round that wrote it; a `fault_spec` entry counts the rounds, from
the first, in which that job dies.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import resource
import time
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, circuit_hash
from .pathsum import SimPlan, run_batched
from .statevec import (
    AmplitudeBatch,
    read_amplitude_header,
    read_amplitudes,
    write_amplitudes,
)

# Default text digits for merged outputs on the command line: 17
# significant digits round-trip float64 exactly.  Shards are exact anyway.
SHARD_DIGITS = 17
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


def _shard_header_ok(header: dict, job: ShardJob) -> bool:
    return all(header.get(key) == value for key, value in job.header.items())


def _shard_done(shard_dir: str, job: ShardJob) -> bool:
    # header and payload digest only; the amplitudes are not decoded
    try:
        header = read_amplitude_header(os.path.join(shard_dir, job.filename))
    except (OSError, ValueError):
        return False
    return _shard_header_ok(header, job)


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
    """Child-process entry point: run assigned jobs in order, commit each via
    atomic rename, and write the round number `attempt` into each header.

    fault_spec maps prefix to the number of early rounds whose run of that
    job must die mid-commit (after the temporary file, before the rename).
    It exists so tests can kill jobs exactly the way a preempted node would.
    """
    for job in jobs:
        start = time.perf_counter()
        out = run_batched(circuit, plan, requests, prefixes=[job.prefix])
        seconds = time.perf_counter() - start
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
    per_job_seconds: dict[int, float]
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

    batch, headers = _merge_verified(circuit, plan, requests, shard_dir)
    per_job = {p: float(h.get("seconds", "nan")) for p, h in headers.items()}
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
    headers: dict[int, dict] = {}
    faults: dict[int, str] = {}
    for job in jobs:  # plan.retained is sorted: ascending prefix order
        try:
            batch, header = read_amplitudes(os.path.join(shard_dir, job.filename))
        except (OSError, ValueError) as exc:
            faults[job.prefix] = "missing" if isinstance(exc, FileNotFoundError) else str(exc)
            continue
        if "sha256" not in header:
            faults[job.prefix] = "not an exact shard"
        elif not _shard_header_ok(header, job):
            faults[job.prefix] = "header does not match the job"
        elif not np.array_equal(batch.indices, req):
            faults[job.prefix] = "answers different request indices"
        else:
            total.amps += batch.amps
            headers[job.prefix] = header
    problems = [f"prefix {p}: {why}" for p, why in faults.items()]
    problems += [f"duplicate shard file {name}" for name in duplicates]
    if problems:
        shown = "; ".join(problems[:16])
        raise MergeError(f"{len(problems)} shard faults: {shown}", failed=list(faults))
    return total, headers
