"""Command line front end: one subcommand per workflow step."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .benchgen import GenSpec, audit, generate, instance_filename
from .circuit import Circuit, CircuitError, GateKind, circuit_hash, parse_circuit, serialize_circuit
from .costmodel import CostParams, forecast, plan_law_args
from .orchestrator import CampaignError, merge, run_campaign, status
from .pathsum import make_plan, run_approx
from .sampler import PT_MIN_COUNT, SampleRequest, committed_indices, porter_thomas_fit, sample
from .statevec import basis_indices, fetch_amplitudes, read_amplitudes, read_json_fields
from .statevec import run_full, utf8_text, write_amplitudes
from . import validate as validation

MAX_DEFAULT_AMPS_QUBITS = 20
# campaign outputs are text; 17 significant digits round-trip float64
CAMPAIGN_OUTPUT_DIGITS = 17


def _read_circuit(path: str, rows: int | None, cols: int | None) -> Circuit:
    try:
        with open(path, "rb") as f:
            return parse_circuit(utf8_text(f.read(), path), rows=rows, cols=cols)
    except CircuitError as exc:
        raise CircuitError(f"{path}: {exc}") from None


def _read_indices(path: str) -> np.ndarray:
    """One hex basis index per line; blank lines and # comments skipped."""
    out = []
    with open(path, errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii():  # raises on a byte that is not UTF-8
                utf8_text(line.encode(errors="surrogateescape"), path, lineno)
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            word = line.split()[0]
            try:
                out.append(int(word, 16))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: {word!r} is not a hex index") from None
    if not out:
        raise ValueError(f"no indices found in {path}")
    return np.array(out, dtype=np.int64)


def _default_indices(circuit: Circuit, amps_file: str | None) -> np.ndarray:
    if amps_file is not None:
        return basis_indices(_read_indices(amps_file), circuit.n_qubits)
    if circuit.n_qubits > MAX_DEFAULT_AMPS_QUBITS:
        raise ValueError(
            f"{circuit.n_qubits} qubits is too many to return every amplitude; "
            "pass --amps with an index file"
        )
    return np.arange(1 << circuit.n_qubits, dtype=np.int64)


def _emit_batch(out_path: str | None, batch, circuit: Circuit, digits: int, plan=None) -> None:
    """Write a batch as text; a truncated run's header also records its
    fidelity, the plan's retained fraction.  That fraction is not the norm
    of the truncated state, which differs from it when the retained
    prefixes carry unequal norms."""
    header = {"n_qubits": str(circuit.n_qubits), "circuit": circuit_hash(circuit)}
    if plan is not None:
        header["fidelity"] = repr(plan.retained_fraction)
    path = "/dev/stdout" if out_path in (None, "-") else out_path
    write_amplitudes(path, batch, digits=digits, header=header)


def _add_circuit_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("circuit", help="circuit file (cycle kind qubits... lines)")
    p.add_argument("--rows", type=int, default=None, help="grid rows if not square")
    p.add_argument("--cols", type=int, default=None, help="grid cols if not square")


def _add_plan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fidelity", type=float, default=1.0, help="fraction of paths to keep")
    p.add_argument("--xp", type=int, default=None, help="prefix digits (jobs axis)")
    p.add_argument("--xb", type=int, default=None, help="branch digits (in-job axis)")
    p.add_argument("--seed", type=int, default=0, help="retained-path seed")


def _make_plan(args, circuit: Circuit):
    return make_plan(circuit, fidelity=args.fidelity, x_p=args.xp, x_b=args.xb, seed=args.seed)


def _cmd_generate(args) -> int:
    spec = GenSpec(
        rows=args.rows,
        cols=args.cols,
        depth=args.depth,
        version=args.version,
        two_qubit=_TWO_QUBIT[args.two_qubit],
        seed=args.seed,
    )
    circuit = generate(spec)
    text = serialize_circuit(circuit)
    out = args.out
    if out is None or out == "-":
        sys.stdout.write(text)
        return 0
    if os.path.isdir(out):
        out = os.path.join(out, instance_filename(spec))
    with open(out, "w") as f:
        f.write(text)
    print(out)
    return 0


def _cmd_audit(args) -> int:
    circuit = _read_circuit(args.circuit, args.rows, args.cols)
    report = audit(circuit)
    if args.json:
        json.dump(report.as_dict(), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    for key, value in report.as_dict().items():
        if not isinstance(value, list):  # block_sizes and per_cut_cross: --json only
            print(f"{key} {value}")
    return 0


def _cmd_simulate(args) -> int:
    circuit = _read_circuit(args.circuit, args.rows, args.cols)
    indices = _default_indices(circuit, args.amps)
    state = run_full(circuit)
    _emit_batch(args.out, fetch_amplitudes(state, indices), circuit, args.digits)
    return 0


def _cmd_pathsim(args) -> int:
    circuit = _read_circuit(args.circuit, args.rows, args.cols)
    indices = _default_indices(circuit, args.amps)
    plan = _make_plan(args, circuit)
    batch = run_approx(circuit, plan, indices)
    _emit_batch(args.out, batch, circuit, args.digits, plan)
    return 0


def _cmd_plan(args) -> int:
    circuit = _read_circuit(args.circuit, args.rows, args.cols)
    plan = _make_plan(args, circuit)
    info = {
        "circuit": circuit_hash(circuit),
        "n_qubits": circuit.n_qubits,
        "cut": f"{plan.cut.orientation}{plan.cut.position}",
        "blocks": [plan.cut.n_a, plan.cut.n_b],
        "cross_gates": plan.x,
        "x_p": plan.x_p,
        "x_b": plan.x_b,
        "d_p": plan.d_p,
        "d_b": plan.d_b,
        "prefix_space": plan.prefix_space,
        "branch_space": plan.branch_space,
        "path_space": plan.path_space,
        "fidelity": plan.fidelity,
        "jobs": len(plan.retained),
    }
    if args.params:
        params = CostParams(*read_json_fields(args.params, C1=float, C2=float, C3=float))
        fc = forecast(
            params,
            **plan_law_args(plan),
            n_a=args.n_a,
            p=args.procs,
            n_nodes=args.nodes,
            machine=args.machine,
        )
        info["forecast"] = {
            "t_tot_hours": fc.T_tot,
            "t_bill_hours": fc.T_bill,
            "t_clock_hours": fc.T_clock,
            "m_proc_bytes": fc.M_proc,
            "m_node_bytes": fc.M_node,
            "m_cluster_bytes": fc.M_cluster,
            "cost": fc.cost,
            "machine": fc.machine,
        }
    json.dump(info, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_sample(args) -> int:
    batch, header = read_amplitudes(args.amps)
    size = len(batch.indices)
    n = header.get("n_qubits", str(max(size, 1).bit_length() - 1))
    if not (n.isascii() and n.isdigit()):
        raise ValueError(f"{args.amps}: n_qubits header {n!r} is not a qubit count")
    n = int(n)
    distinct = np.unique(basis_indices(batch.indices, n)).size
    if not size == distinct == 1 << n:
        raise ValueError(
            f"sampling needs each of the {1 << n} basis states once: "
            f"file has {size} amplitudes at {distinct} distinct indices"
        )
    probs_by_index = np.zeros(1 << n)
    probs_by_index[batch.indices] = np.abs(batch.amps) ** 2
    # a truncated state keeps only part of the norm; sample its own distribution
    total = probs_by_index.sum()
    if not total > 0:
        raise ValueError("amplitude file carries no probability mass")
    probs_by_index /= total
    req = SampleRequest(
        n_qubits=n,
        count=args.count,
        mode=args.mode,
        epsilon=args.epsilon,
        m_star=args.mstar,
        seed=args.seed,
    )
    idx = committed_indices(req)
    probs = probs_by_index[idx]
    drawn = sample(req, idx, probs)
    out = sys.stdout if args.out in (None, "-") else open(args.out, "w")
    try:
        for bits in drawn.bitstrings:
            out.write(bits + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    summary = {
        "accepted_count": int(drawn.accepted_count),
        "tail_mass": float(drawn.measured_tail_mass),
        "ks_statistic": None,
    }
    if len(probs) >= PT_MIN_COUNT:
        summary["ks_statistic"] = porter_thomas_fit(probs).ks_statistic
    print(json.dumps(summary), file=sys.stderr)
    return 0


def _cmd_campaign(args) -> int:
    circuit = _read_circuit(args.circuit, args.rows, args.cols)
    indices = _default_indices(circuit, args.amps)
    plan = _make_plan(args, circuit)
    if args.action == "status":
        st = status(circuit, plan, indices, args.dir)
        print(f"plan {st.plan_hash}: {len(st.done)}/{st.total} shards done, "
              f"{len(st.pending)} pending, complete={st.complete}")
        return 0
    if args.action == "merge":
        _emit_batch(args.out, merge(circuit, plan, indices, args.dir), circuit, args.digits, plan)
        return 0
    result = run_campaign(
        circuit,
        plan,
        indices,
        args.dir,
        workers=args.workers,
        report_path=args.report,
        forecast_seconds=args.forecast_seconds,
    )
    if args.out:
        _emit_batch(args.out, result.batch, circuit, args.digits, plan)
    print(
        f"campaign {result.plan_hash}: {len(result.per_job_seconds)} shards in "
        f"{result.rounds} round(s), wall {result.wall_seconds:.2f}s, "
        f"slowest job {result.job_seconds_max:.2f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_validate_verifier(args) -> int:
    circuit = _read_circuit(args.circuit, args.rows, args.cols)
    private_path = args.private or args.challenge + ".private"
    if args.response is None:
        ch = validation.issue_challenge(
            circuit,
            args.k,
            delta=args.delta,
            seed=args.seed,
            f1=args.f1,
            f1_band=(args.f1_band[0], args.f1_band[1]),
        )
        validation.write_challenge(args.challenge, ch)
        with open(private_path, "w") as f:
            json.dump({"f1": ch.f1}, f)
            f.write("\n")
        print(f"challenge written to {args.challenge}; keep {private_path} secret")
        return 0
    ch = validation.read_challenge(args.challenge)
    (f1,) = read_json_fields(private_path, f1=float)
    ch = validation.Challenge(ch.circuit_hash, ch.k, ch.index_seed, ch.delta, f1)
    response, _ = read_amplitudes(args.response)
    result = validation.verifier_round(circuit, ch, response, path_seed=args.path_seed)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{verdict} f_e={result.f_e:.6f} target={result.f1_realized:.6f} delta={result.delta}")
    return 0 if result.passed else 1


def _cmd_validate_claimant(args) -> int:
    circuit = _read_circuit(args.circuit, args.rows, args.cols)
    ch = validation.read_challenge(args.challenge)
    batch = validation.claimant_round(
        circuit, ch, engine=args.engine, fidelity=args.fidelity, seed=args.seed
    )
    _emit_batch(args.out, batch, circuit, args.digits)
    return 0


_TWO_QUBIT = {"cz": GateKind.CZ, "iswap": GateKind.ISWAP}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridsim",
        description="Simulate, sample, and validate random circuits on qubit grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a benchmark circuit")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--depth", type=int, required=True, help="two-qubit cycles between H layers")
    p.add_argument("--version", choices=("v1", "v2"), default="v2")
    p.add_argument("--two-qubit", choices=("cz", "iswap"), default="cz")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None, help="file, directory, or - for stdout")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("audit", help="hardness audit of a circuit file")
    _add_circuit_arg(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("simulate", help="exact state-vector amplitudes")
    _add_circuit_arg(p)
    p.add_argument("--amps", default=None, help="file of hex indices to evaluate")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--digits", type=int, default=9)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pathsim", help="truncated path-sum amplitudes")
    _add_circuit_arg(p)
    _add_plan_args(p)
    p.add_argument("--amps", default=None, help="file of hex indices to evaluate")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--digits", type=int, default=9)
    p.set_defaults(func=_cmd_pathsim)

    p = sub.add_parser("plan", help="show how a hybrid run would be split")
    _add_circuit_arg(p)
    _add_plan_args(p)
    p.add_argument("--params", default=None, help="JSON file with calibrated C1 C2 C3")
    p.add_argument("--n-a", type=int, default=1, help="amplitudes to be collected")
    p.add_argument("--procs", type=int, default=1, help="processes per node for the forecast")
    p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--machine", default=None, help="rate-card machine type to price against")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("sample", help="draw bitstrings from an amplitude file")
    p.add_argument("--amps", required=True, help="amplitude file covering the full state")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--mode", choices=("frugal", "basic"), default="frugal")
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--mstar", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("campaign", help="run, inspect, or merge a shard campaign")
    p.add_argument("action", choices=("run", "status", "merge"))
    p.add_argument("--circuit", required=True)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    _add_plan_args(p)
    p.add_argument("--dir", required=True, help="shard directory")
    p.add_argument("--amps", default=None)
    p.add_argument("--workers", type=int, default=1, help="worker processes on this node")
    p.add_argument("--report", default=None, help="write a JSON run report here")
    p.add_argument("--forecast-seconds", type=float, default=None)
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--digits", type=int, default=CAMPAIGN_OUTPUT_DIGITS)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("validate", help="verifier/claimant protocol over files")
    vsub = p.add_subparsers(dest="role", required=True)

    v = vsub.add_parser("verifier", help="issue a challenge, or score a response")
    _add_circuit_arg(v)
    v.add_argument("--challenge", default="challenge.json")
    v.add_argument("--private", default=None, help="secret sidecar (default <challenge>.private)")
    v.add_argument("--response", default=None, help="score this response file")
    v.add_argument("--k", type=int, default=100000)
    v.add_argument("--delta", type=float, default=validation.DEFAULT_DELTA)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--f1", type=float, default=None, help="override the secret fidelity")
    v.add_argument("--f1-band", type=float, nargs=2, default=list(validation.DEFAULT_F1_BAND))
    v.add_argument("--path-seed", type=int, default=None)
    v.set_defaults(func=_cmd_validate_verifier)

    c = vsub.add_parser("claimant", help="answer a challenge file")
    _add_circuit_arg(c)
    c.add_argument("--challenge", default="challenge.json")
    c.add_argument("--engine", choices=validation.CLAIMANT_ENGINES, default="exact")
    c.add_argument("--fidelity", type=float, default=1.0)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("-o", "--out", default="response.amp")
    c.add_argument("--digits", type=int, default=9)
    c.set_defaults(func=_cmd_validate_claimant)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError, CampaignError, MemoryError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
