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
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
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
        # prefix -> exit code of the worker that ran its last attempt
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
    """Self-describing unit of campaign work: one retained prefix."""

    prefix: int
    plan_hash: str
    circuit_hash: str
    request_hash: str

    @property
    def filename(self) -> str:
        return f"{self.plan_hash}.{self.prefix:08x}.amp"

    @property
    def header(self) -> dict:
        """The header entries that bind a shard file to this job."""
        return {
            "plan": self.plan_hash,
            "circuit": self.circuit_hash,
            "requests": self.request_hash,
            "prefix": str(self.prefix),
        }


def shard(circuit: Circuit, plan: SimPlan, requests) -> list[ShardJob]:
    """One job per retained prefix, each carrying the hashes it must match."""
    fp = plan_hash(circuit, plan, requests)
    ch = circuit_hash(circuit)
    rh = request_hash(requests)
    return [ShardJob(int(p), fp, ch, rh) for p in plan.retained]


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


def _worker(circuit, plan, requests, jobs, attempts, shard_dir, fault_spec):
    """Child-process entry point: run assigned jobs, commit via atomic rename.

    fault_spec maps prefix to the number of early attempts that must die
    mid-commit (after the temporary file, before the rename).  It exists so
    tests can kill jobs exactly the way a preempted node would.
    """
    for job in jobs:
        attempt = attempts[job.prefix] + 1
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
    rounds: int
    workers: int
    per_job_seconds: dict[int, float]
    child_exit_codes: list[list[int]]  # one list per round, one code per worker

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
        rss = _peak_rss_bytes()
        if rss is not None:
            out["peak_rss_bytes"] = rss
        if forecast_seconds is not None:
            out["forecast_seconds"] = float(forecast_seconds)
            out["actual_seconds"] = round(self.job_seconds_total, 6)
        return out


def _peak_rss_bytes() -> int | None:
    try:
        import resource
    except ImportError:
        return None
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
    single-threaded poller: it learns about progress only by re-reading the
    shard directory after each round of workers exits.  A job assigned more
    than `retry_limit` extra times without producing a valid shard aborts
    the campaign; the attempt counter ticks per assignment, so jobs that a
    dying sibling kept from running count those rounds too.  The error
    names the exit code of the worker that ran each failed job's last
    attempt.  After each round the temporary files of this round's workers
    are removed, whether or not they were committed.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    os.makedirs(shard_dir, exist_ok=True)
    start = time.perf_counter()
    jobs = shard(circuit, plan, requests)
    by_prefix = {job.prefix: job for job in jobs}
    attempts = {job.prefix: 0 for job in jobs}
    last_exit: dict[int, int] = {}
    child_exit_codes: list[list[int]] = []
    ctx = multiprocessing.get_context("fork")
    rounds = 0
    while True:
        _, pending = _scan(jobs, shard_dir)
        if not pending:
            break
        over = sorted(p for p in pending if attempts[p] > retry_limit)
        if over:
            codes = {p: last_exit.get(p) for p in over}
            shown = ", ".join(f"{p} (exit code {codes[p]})" for p in over[:16])
            raise CampaignError(
                f"{len(over)} shard jobs failed after {retry_limit} retries: prefixes {shown}",
                failed=over,
                exit_codes=codes,
            )
        rounds += 1
        assigned = [by_prefix[p] for p in pending]
        n_procs = min(workers, len(assigned))
        procs = []
        for w in range(n_procs):
            share = assigned[w::n_procs]
            proc = ctx.Process(
                target=_worker,
                args=(
                    circuit,
                    plan,
                    requests,
                    share,
                    dict(attempts),
                    shard_dir,
                    fault_spec or {},
                ),
            )
            proc.start()
            procs.append((proc, share))
        codes = []
        for proc, share in procs:
            proc.join()
            codes.append(proc.exitcode)
            for job in share:
                last_exit[job.prefix] = proc.exitcode
                with contextlib.suppress(FileNotFoundError):
                    os.remove(_tmp_path(os.path.join(shard_dir, job.filename), proc.pid))
        child_exit_codes.append(codes)
        for p in pending:
            attempts[p] += 1

    batch, headers = _merge_verified(circuit, plan, requests, shard_dir)
    per_job = {p: float(h.get("seconds", "nan")) for p, h in headers.items()}
    result = CampaignResult(
        batch=batch,
        plan_hash=jobs[0].plan_hash,
        wall_seconds=time.perf_counter() - start,
        rounds=rounds,
        workers=workers,
        per_job_seconds=per_job,
        child_exit_codes=child_exit_codes,
    )
    if report_path is not None:
        with open(report_path, "w") as f:
            json.dump(result.report(forecast_seconds), f, indent=2)
            f.write("\n")
    return result


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
