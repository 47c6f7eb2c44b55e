import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import tomllib

import numpy as np
import pytest

import gridsim
from gridsim import cli
from gridsim.cli import main
from gridsim.circuit import parse_circuit
from gridsim.costmodel import CostParams, forecast, plan_law_args, total_seconds
from gridsim.pathsum import make_plan
from gridsim.sampler import SampleRequest, committed_indices, sample, sample_basic
from gridsim.statevec import read_amplitudes
from gridsim.validate import issue_challenge


@pytest.fixture()
def circuit_file(tmp_path):
    path = tmp_path / "circ.txt"
    assert main(["generate", "--rows", "3", "--cols", "3", "--depth", "10",
                 "--seed", "4", "-o", str(path)]) == 0
    return path


def run_ok(argv):
    assert main(argv) == 0


def test_cli_import_loads_no_scipy():
    # scipy.stats alone cost about a second of every command's start-up;
    # concurrent.futures brings logging, about 8 ms more, so the threaded
    # path sum imports it only when it starts threads
    heavy = ("scipy", "concurrent", "logging")
    code = f"import sys, gridsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in {heavy}))"
    src = os.path.dirname(os.path.dirname(os.path.abspath(gridsim.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_module_entry_point_runs_and_fails_cleanly(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(gridsim.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    run = lambda *argv: subprocess.run([sys.executable, "-m", "gridsim.cli", *argv], env=env,
                                       cwd=tmp_path, capture_output=True, text=True)
    ok = run("generate", "--rows", "2", "--cols", "2", "--depth", "2")
    assert ok.returncode == 0 and ok.stdout.startswith("4\n")
    bad = run("audit", "missing.txt")
    assert bad.returncode == 1 and bad.stdout == ""
    assert bad.stderr == "error: [Errno 2] No such file or directory: 'missing.txt'\n"


def test_console_script_resolves_to_main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["gridsim"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is main


class TestGenerate:
    def test_stdout_roundtrip(self, capsys):
        run_ok(["generate", "--rows", "2", "--cols", "3", "--depth", "6"])
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "6"
        assert all(line.split()[1] in {"h", "t", "x_1_2", "y_1_2", "cz"}
                   for line in text.splitlines()[1:])

    def test_directory_output_uses_canonical_name(self, tmp_path, capsys):
        run_ok(["generate", "--rows", "2", "--cols", "2", "--depth", "5",
                "--seed", "3", "-o", str(tmp_path)])
        assert (tmp_path / "inst_2x2_6_3.txt").exists()

    def test_rejects_bad_version(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--rows", "2", "--cols", "2", "--depth", "5",
                  "--version", "v9"])


class TestAudit:
    def test_json_report(self, circuit_file, capsys):
        run_ok(["audit", str(circuit_file), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["n_qubits"] == 9
        assert report["n_cycles"] == 12
        assert report["czt_runs"] == 0
        assert report["has_final_h"] is True
        assert report["path_space"] == 1 << report["cross_gates"]

    def test_text_report(self, circuit_file, capsys):
        run_ok(["audit", str(circuit_file)])
        lines = dict(l.split(None, 1) for l in capsys.readouterr().out.splitlines())
        assert lines["n_qubits"] == "9"
        assert "cross_gates" in lines

    def test_missing_file_is_a_clean_error(self, capsys):
        assert main(["audit", "/nonexistent/file.txt"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestSimulatePathsim:
    def test_exact_amplitudes_written(self, circuit_file, tmp_path):
        out = tmp_path / "state.amp"
        run_ok(["simulate", str(circuit_file), "-o", str(out), "--digits", "12"])
        batch, header = read_amplitudes(out)
        assert header["n_qubits"] == "9"
        assert batch.indices.size == 512
        assert float(np.sum(np.abs(batch.amps) ** 2)) == pytest.approx(1.0, abs=1e-4)

    def test_full_fidelity_pathsim_matches_simulate(self, circuit_file, tmp_path):
        exact = tmp_path / "exact.amp"
        hybrid = tmp_path / "hybrid.amp"
        run_ok(["simulate", str(circuit_file), "-o", str(exact), "--digits", "12"])
        run_ok(["pathsim", str(circuit_file), "--fidelity", "1.0", "-o", str(hybrid),
                "--digits", "12"])
        a, _ = read_amplitudes(exact)
        b, _ = read_amplitudes(hybrid)
        np.testing.assert_allclose(a.amps, b.amps, atol=1e-6)

    def test_unallocatable_state_is_a_clean_error(self, tmp_path, capsys):
        # 2^49 complex64 amplitudes (4 PiB) exceed the address space, so the
        # allocation fails at once
        circ = tmp_path / "circ.txt"
        circ.write_text("49\n0 h 0\n")
        idx_file = tmp_path / "idx.txt"
        idx_file.write_text("0\n")
        assert main(["simulate", str(circ), "--amps", str(idx_file)]) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

    @pytest.mark.parametrize("index, message", [
        ("200", "index 200 is outside the 9-qubit state"),
        ("10000000000000000", "too large"),
    ], ids=["past-2^n", "past-2^63"])
    def test_out_of_range_index_is_a_clean_error(self, circuit_file, tmp_path, capsys,
                                                 index, message):
        idx_file = tmp_path / "idx.txt"
        idx_file.write_text(f"0\n{index}\n")
        assert main(["simulate", str(circuit_file), "--amps", str(idx_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_digits_below_one_fail_before_any_output(self, circuit_file, tmp_path, capsys):
        out = tmp_path / "out.amp"
        assert main(["simulate", str(circuit_file), "--digits", "0", "-o", str(out)]) == 1
        assert capsys.readouterr().err == "error: digits must be at least 1, got 0\n"
        assert not out.exists()

    def test_index_file_restricts_output(self, circuit_file, tmp_path):
        idx_file = tmp_path / "idx.txt"
        idx_file.write_text("# three requests\n0\nff\n1a0\n")
        out = tmp_path / "some.amp"
        run_ok(["simulate", str(circuit_file), "--amps", str(idx_file), "-o", str(out)])
        batch, _ = read_amplitudes(out)
        np.testing.assert_array_equal(batch.indices, [0, 0xFF, 0x1A0])

    def test_bad_index_names_file_and_line(self, circuit_file, tmp_path, capsys):
        idx_file = tmp_path / "bad.idx"
        idx_file.write_text("0\nzz\n")
        assert main(["simulate", str(circuit_file), "--amps", str(idx_file)]) == 1
        assert capsys.readouterr().err == f"error: {idx_file}: line 2: 'zz' is not a hex index\n"

    def test_non_utf8_index_names_file_and_line(self, circuit_file, tmp_path, capsys):
        idx_file = tmp_path / "u.idx"
        idx_file.write_bytes(b"0\n\xff\n")
        assert main(["simulate", str(circuit_file), "--amps", str(idx_file)]) == 1
        assert capsys.readouterr().err == f"error: {idx_file}: line 2: byte 0xff is not UTF-8\n"

    def test_non_utf8_circuit_names_file_and_line(self, tmp_path, capsys):
        circ = tmp_path / "u.txt"
        circ.write_bytes(b"4\n0 h 0\n1 h 1 # \xff\n")
        assert main(["simulate", str(circ)]) == 1
        assert capsys.readouterr().err == f"error: {circ}: line 3: byte 0xff is not UTF-8\n"

    def test_index_file_of_comments_only_rejected(self, circuit_file, tmp_path, capsys):
        idx_file = tmp_path / "empty.idx"
        idx_file.write_text("# nothing here\n\n")
        assert main(["simulate", str(circuit_file), "--amps", str(idx_file)]) == 1
        assert capsys.readouterr().err == f"error: no indices found in {idx_file}\n"

    def test_bad_circuit_line_names_file_and_line(self, tmp_path, capsys):
        circ = tmp_path / "c.txt"
        circ.write_text("4\n0 h 0\n1 q 1\n")
        assert main(["simulate", str(circ)]) == 1
        assert capsys.readouterr().err == f"error: {circ}: line 3: unknown gate name 'q'\n"

    def test_every_amplitude_of_21_qubits_needs_an_index_file(self, tmp_path, capsys):
        circ = tmp_path / "c21.txt"
        circ.write_text("21\n0 h 0\n")
        assert main(["simulate", str(circ)]) == 1
        assert capsys.readouterr().err == (
            "error: 21 qubits is too many to return every amplitude; "
            "pass --amps with an index file\n"
        )


class TestPlan:
    def test_reports_split(self, circuit_file, capsys):
        run_ok(["plan", str(circuit_file), "--fidelity", "0.25", "--xb", "0"])
        info = json.loads(capsys.readouterr().out)
        assert info["n_qubits"] == 9
        assert info["x_p"] == info["cross_gates"]
        assert info["path_space"] == info["prefix_space"] * info["branch_space"]
        assert info["jobs"] == max(1, round(0.25 * info["prefix_space"]))

    def test_forecast_block(self, circuit_file, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"C1": 2e-9, "C2": 1.1, "C3": 7e-9}))
        run_ok(["plan", str(circuit_file), "--params", str(params),
                "--n-a", "512", "--machine", "std-16"])
        info = json.loads(capsys.readouterr().out)
        fc = info["forecast"]
        assert fc["machine"] == "std-16"
        assert fc["t_clock_hours"] == pytest.approx(fc["t_bill_hours"])
        assert fc["cost"] == pytest.approx(fc["t_bill_hours"] * 0.72)

    @pytest.mark.parametrize("content, field", [
        ('{"C1": 2e-9, "C2": 1.1}', "C3"),
        ("[2e-9, 1.1, 7e-9]", "C1"),
    ], ids=["missing-field", "not-an-object"])
    def test_params_file_names_the_field_it_lacks(self, circuit_file, tmp_path, capsys,
                                                  content, field):
        params = tmp_path / "p.json"
        params.write_text(content)
        assert main(["plan", str(circuit_file), "--params", str(params)]) == 1
        assert capsys.readouterr().err == f"error: {params} lacks {field}\n"

    def test_params_file_names_a_field_that_is_not_a_number(self, circuit_file, tmp_path,
                                                           capsys):
        params = tmp_path / "p.json"
        params.write_text('{"C1": [2e-9], "C2": 1.1, "C3": 7e-9}')
        assert main(["plan", str(circuit_file), "--params", str(params)]) == 1
        assert capsys.readouterr().err == f"error: {params}: C1 is not a number\n"

    def test_procs_and_nodes_match_the_library_forecast(self, circuit_file, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"C1": 2e-9, "C2": 1.1, "C3": 7e-9}))
        run_ok(["plan", str(circuit_file), "--fidelity", "0.5", "--params", str(params),
                "--n-a", "64", "--procs", "4", "--nodes", "2"])
        fc = json.loads(capsys.readouterr().out)["forecast"]
        cost = CostParams(2e-9, 1.1, 7e-9)
        plan = make_plan(parse_circuit(circuit_file.read_text()), fidelity=0.5)
        want = forecast(cost, **plan_law_args(plan), n_a=64, p=4, n_nodes=2)
        assert fc["t_tot_hours"] == want.T_tot
        assert fc["t_bill_hours"] == want.T_bill == cost.omega_at(4) * want.T_tot / 4
        assert fc["t_clock_hours"] == want.T_clock == want.T_bill / 2
        assert fc["m_node_bytes"] == want.M_node == 4 * want.M_proc == 4 * fc["m_proc_bytes"]
        assert fc["m_cluster_bytes"] == want.M_cluster == 2 * want.M_node

    def test_forecast_counts_iswap_paths(self, tmp_path, capsys):
        circuit = tmp_path / "iswap.txt"
        run_ok(["generate", "--rows", "4", "--cols", "4", "--depth", "20",
                "--two-qubit", "iswap", "-o", str(circuit)])
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"C1": 2e-9, "C2": 1.1, "C3": 7e-9}))
        capsys.readouterr()
        run_ok(["plan", str(circuit), "--fidelity", "0.25", "--params", str(params),
                "--n-a", "16"])
        info = json.loads(capsys.readouterr().out)
        assert (info["x_p"], info["x_b"], info["prefix_space"]) == (8, 2, 65536)
        want = total_seconds(
            CostParams(2e-9, 1.1, 7e-9), 0.25, *info["blocks"], info["d_p"], info["d_b"],
            math.log2(info["prefix_space"]), math.log2(info["branch_space"]), 16,
        )
        assert info["forecast"]["t_tot_hours"] == pytest.approx(want / 3600, rel=1e-12)


class TestSample:
    def test_bitstrings_and_summary(self, circuit_file, tmp_path, capsys):
        amp_file = tmp_path / "state.amp"
        run_ok(["simulate", str(circuit_file), "-o", str(amp_file), "--digits", "12"])
        out = tmp_path / "bits.txt"
        run_ok(["sample", "--amps", str(amp_file), "--count", "200",
                "--seed", "6", "-o", str(out)])
        summary = json.loads(capsys.readouterr().err)
        lines = out.read_text().splitlines()
        assert len(lines) == summary["accepted_count"]
        assert all(len(l) == 9 and set(l) <= {"0", "1"} for l in lines)
        assert summary["tail_mass"] >= 0.0
        assert 60 <= summary["accepted_count"] <= 500

    def test_basic_mode_runs_the_basic_sampler(self, circuit_file, tmp_path, capsys):
        amp_file = tmp_path / "state.amp"
        run_ok(["simulate", str(circuit_file), "-o", str(amp_file), "--digits", "12"])
        out = tmp_path / "bits.txt"
        run_ok(["sample", "--amps", str(amp_file), "--count", "50", "--mode", "basic",
                "--seed", "3", "-o", str(out)])
        batch, _ = read_amplitudes(amp_file)
        probs = np.zeros(1 << 9)
        probs[batch.indices] = np.abs(batch.amps) ** 2
        probs /= probs.sum()
        req = SampleRequest(9, 50, mode="basic", seed=3)
        idx = committed_indices(req)
        want = sample_basic(req, idx, probs[idx])
        assert want.accepted_count > 0
        assert out.read_text().splitlines() == list(want.bitstrings)

    def test_epsilon_and_mstar_reach_the_sampler(self, circuit_file, tmp_path, capsys):
        amp_file = tmp_path / "state.amp"
        run_ok(["simulate", str(circuit_file), "-o", str(amp_file), "--digits", "12"])
        out = tmp_path / "bits.txt"
        run_ok(["sample", "--amps", str(amp_file), "--count", "80", "--mode", "basic",
                "--epsilon", "0.2", "--mstar", "3", "--seed", "4", "-o", str(out)])
        summary = json.loads(capsys.readouterr().err)
        batch, _ = read_amplitudes(amp_file)
        probs = np.zeros(1 << 9)
        probs[batch.indices] = np.abs(batch.amps) ** 2
        probs /= probs.sum()
        req = SampleRequest(9, 80, mode="basic", epsilon=0.2, m_star=3, seed=4)
        idx = committed_indices(req)
        want = sample(req, idx, probs[idx])
        assert out.read_text().splitlines() == list(want.bitstrings)
        assert summary["accepted_count"] == want.accepted_count
        assert summary["tail_mass"] == want.measured_tail_mass
        default = SampleRequest(9, 80, mode="basic", seed=4)
        assert committed_indices(default).size != idx.size  # epsilon changed the request

    def test_n_qubits_header_that_is_not_a_count_names_file(self, tmp_path, capsys):
        amp_file = tmp_path / "a.amp"
        amp_file.write_text("# n_qubits x\n0 1.0 0.0\n1 0.0 0.0\n")
        assert main(["sample", "--amps", str(amp_file), "--count", "5"]) == 1
        want = f"error: {amp_file}: n_qubits header 'x' is not a qubit count\n"
        assert capsys.readouterr().err == want

    def test_truncated_amplitudes_sample_their_own_distribution(self, tmp_path, capsys):
        circ = tmp_path / "circ.txt"
        run_ok(["generate", "--rows", "4", "--cols", "4", "--depth", "20", "-o", str(circ)])
        amp_file = tmp_path / "approx.amp"
        run_ok(["pathsim", str(circ), "--fidelity", "0.125", "-o", str(amp_file)])
        assert read_amplitudes(amp_file)[1]["fidelity"] == "0.125"
        capsys.readouterr()
        run_ok(["sample", "--amps", str(amp_file), "--count", "20000", "--mode", "frugal",
                "-o", str(tmp_path / "bits.txt")])
        summary = json.loads(capsys.readouterr().err)
        assert abs(summary["accepted_count"] - 20000) <= 1000
        assert summary["tail_mass"] > 0.0

    def test_partial_amplitude_file_rejected(self, circuit_file, tmp_path, capsys):
        idx_file = tmp_path / "idx.txt"
        idx_file.write_text("0\n1\n")
        amp_file = tmp_path / "partial.amp"
        run_ok(["simulate", str(circuit_file), "--amps", str(idx_file), "-o", str(amp_file)])
        assert main(["sample", "--amps", str(amp_file), "--count", "5"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [("5", "3"), ("5", "10")], ids=["repeated", "past-2^n"])
    def test_indices_must_cover_each_state_once(self, tmp_path, capsys, old, new):
        circ = tmp_path / "circ.txt"
        run_ok(["generate", "--rows", "2", "--cols", "2", "--depth", "5", "-o", str(circ)])
        amp_file = tmp_path / "state.amp"
        run_ok(["simulate", str(circ), "-o", str(amp_file)])
        lines = amp_file.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.split()[0] == old)
        lines[at] = " ".join([new, *lines[at].split()[1:]])
        amp_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["sample", "--amps", str(amp_file), "--count", "5"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("line", ["zz 1.0 0.0", "0 1.0"], ids=["bad-index", "two-fields"])
    def test_bad_amplitude_line_names_file_and_line(self, tmp_path, capsys, line):
        amp_file = tmp_path / "bad.amp"
        amp_file.write_text(f"# n_qubits 1\n{line}\n1 0.0 0.0\n")
        assert main(["sample", "--amps", str(amp_file), "--count", "5"]) == 1
        want = f"error: {amp_file}: line 2: '{line}' is not 'index_hex re im'\n"
        assert capsys.readouterr().err == want

    def test_non_utf8_header_names_file_and_line(self, tmp_path, capsys):
        amp_file = tmp_path / "u.amp"
        amp_file.write_bytes(b"# n_qubits 1\n# tag \xff\n0 1.0 0.0\n")
        assert main(["sample", "--amps", str(amp_file), "--count", "5"]) == 1
        assert capsys.readouterr().err == f"error: {amp_file}: line 2: byte 0xff is not UTF-8\n"

    def test_file_without_probability_mass_rejected(self, tmp_path, capsys):
        amp_file = tmp_path / "zero.amp"
        amp_file.write_text("# n_qubits 1\n0 0.0 0.0\n1 0.0 -0.0\n")
        assert main(["sample", "--amps", str(amp_file), "--count", "5"]) == 1
        assert capsys.readouterr().err == "error: amplitude file carries no probability mass\n"


class TestCampaign:
    def test_run_status_merge_cycle(self, circuit_file, tmp_path, capsys):
        shard_dir = tmp_path / "shards"
        plan_args = ["--fidelity", "0.5", "--xb", "0", "--seed", "2"]
        report = tmp_path / "report.json"
        run_ok(["campaign", "run", "--circuit", str(circuit_file), "--dir", str(shard_dir),
                "--workers", "2", "--report", str(report), *plan_args])
        capsys.readouterr()
        run_ok(["campaign", "status", "--circuit", str(circuit_file),
                "--dir", str(shard_dir), *plan_args])
        assert "complete=True" in capsys.readouterr().out
        merged = tmp_path / "merged.amp"
        run_ok(["campaign", "merge", "--dir", str(shard_dir), "--circuit", str(circuit_file),
                "-o", str(merged), *plan_args])
        direct = tmp_path / "direct.amp"
        run_ok(["pathsim", str(circuit_file), "--digits", "17", "-o", str(direct), *plan_args])
        a, _ = read_amplitudes(merged)
        b, _ = read_amplitudes(direct)
        np.testing.assert_allclose(a.amps, b.amps, atol=1e-7)
        assert json.loads(report.read_text())["jobs"] >= 1

    def test_run_output_is_the_merge_output(self, circuit_file, tmp_path):
        common = ["--circuit", str(circuit_file), "--dir", str(tmp_path / "shards"),
                  "--fidelity", "0.5", "--xb", "0", "--seed", "2"]
        run_ok(["campaign", "run", "-o", str(tmp_path / "run.amp"), *common])
        run_ok(["campaign", "merge", "-o", str(tmp_path / "merge.amp"), *common])
        assert (tmp_path / "run.amp").read_bytes() == (tmp_path / "merge.amp").read_bytes()

    def test_worker_count_does_not_change_the_plan(self, tmp_path, capsys):
        # status and merge rebuild the plan without --workers, so the run's
        # worker count must not change the default split
        circ = tmp_path / "circ.txt"
        run_ok(["generate", "--rows", "3", "--cols", "3", "--depth", "12",
                "--seed", "0", "-o", str(circ)])
        shard_dir = tmp_path / "shards"
        common = ["--circuit", str(circ), "--fidelity", "0.5"]
        run_ok(["campaign", "run", "--dir", str(shard_dir), "--workers", "8", *common])
        capsys.readouterr()
        run_ok(["campaign", "status", "--dir", str(shard_dir), *common])
        assert "complete=True" in capsys.readouterr().out
        assert main(["campaign", "merge", "--dir", str(shard_dir),
                     "-o", str(tmp_path / "m.amp"), *common]) == 0

    def test_resume_completes_after_loss(self, circuit_file, tmp_path, capsys):
        shard_dir = tmp_path / "shards"
        plan_args = ["--fidelity", "1.0", "--xb", "0"]
        run_ok(["campaign", "run", "--circuit", str(circuit_file),
                "--dir", str(shard_dir), *plan_args])
        victim = sorted(shard_dir.glob("*.amp"))[0]
        victim.unlink()
        run_ok(["campaign", "run", "--circuit", str(circuit_file),
                "--dir", str(shard_dir), *plan_args])
        capsys.readouterr()
        run_ok(["campaign", "status", "--circuit", str(circuit_file),
                "--dir", str(shard_dir), *plan_args])
        assert "complete=True" in capsys.readouterr().out

    def test_report_holds_the_forecast_and_actual_seconds(self, circuit_file, tmp_path):
        report = tmp_path / "r.json"
        run_ok(["campaign", "run", "--circuit", str(circuit_file), "--dir", str(tmp_path / "s"),
                "--fidelity", "0.5", "--xb", "0", "--forecast-seconds", "12.5",
                "--report", str(report)])
        got = json.loads(report.read_text())
        assert got["forecast_seconds"] == 12.5
        assert got["actual_seconds"] == got["job_seconds_total"]

    def test_out_of_range_index_fails_before_any_worker(self, circuit_file, tmp_path, capsys):
        idx_file = tmp_path / "idx.txt"
        idx_file.write_text("1ff\n200\n")
        shard_dir = tmp_path / "shards"
        assert main(["campaign", "run", "--circuit", str(circuit_file), "--dir", str(shard_dir),
                     "--amps", str(idx_file), "--fidelity", "0.5", "--xb", "0"]) == 1
        assert capsys.readouterr().err == "error: index 200 is outside the 9-qubit state\n"
        assert not shard_dir.exists()


class TestValidateProtocol:
    def test_full_round_over_files(self, tmp_path, capsys):
        circ = tmp_path / "circ.txt"
        run_ok(["generate", "--rows", "2", "--cols", "7", "--depth", "23",
                "--seed", "3", "-o", str(circ)])
        challenge = tmp_path / "challenge.json"
        run_ok(["validate", "verifier", str(circ), "--challenge", str(challenge),
                "--k", "2048", "--f1", "0.2", "--seed", "21"])
        private = json.loads((tmp_path / "challenge.json.private").read_text())
        assert 0 < private["f1"] < 1
        assert "f1" not in json.loads(challenge.read_text())
        response = tmp_path / "response.amp"
        run_ok(["validate", "claimant", str(circ), "--challenge", str(challenge),
                "--engine", "exact", "-o", str(response), "--digits", "12"])
        capsys.readouterr()
        assert main(["validate", "verifier", str(circ), "--challenge", str(challenge),
                     "--response", str(response), "--path-seed", "93"]) == 0
        assert capsys.readouterr().out.startswith("PASS")

        fake = tmp_path / "fake.amp"
        run_ok(["validate", "claimant", str(circ), "--challenge", str(challenge),
                "--engine", "random", "--seed", "8", "-o", str(fake)])
        capsys.readouterr()
        assert main(["validate", "verifier", str(circ), "--challenge", str(challenge),
                     "--response", str(fake), "--path-seed", "93"]) == 1
        assert capsys.readouterr().out.startswith("FAIL")

    def test_private_path_delta_and_f1_band_match_the_library(self, tmp_path, capsys):
        circ = tmp_path / "circ.txt"
        run_ok(["generate", "--rows", "2", "--cols", "3", "--depth", "6", "-o", str(circ)])
        challenge, private = tmp_path / "ch.json", tmp_path / "secret" / "p.json"
        private.parent.mkdir()
        run_ok(["validate", "verifier", str(circ), "--challenge", str(challenge), "--k", "16",
                "--private", str(private), "--delta", "0.02", "--f1-band", "0.3", "0.4",
                "--seed", "7"])
        assert not (tmp_path / "ch.json.private").exists()
        f1 = json.loads(private.read_text())["f1"]
        assert json.loads(challenge.read_text())["delta"] == 0.02
        assert 0.3 <= f1 < 0.4
        want = issue_challenge(parse_circuit(circ.read_text()), 16, delta=0.02, seed=7,
                               f1_band=(0.3, 0.4))
        assert (f1, json.loads(challenge.read_text())) == (want.f1, want.public_dict())

    def test_private_file_names_the_field_it_lacks(self, tmp_path, capsys):
        circ = tmp_path / "circ.txt"
        run_ok(["generate", "--rows", "2", "--cols", "3", "--depth", "6", "-o", str(circ)])
        challenge = tmp_path / "ch.json"
        run_ok(["validate", "verifier", str(circ), "--challenge", str(challenge), "--k", "16"])
        response = tmp_path / "r.amp"
        run_ok(["validate", "claimant", str(circ), "--challenge", str(challenge),
                "-o", str(response)])
        private = tmp_path / "ch.json.private"
        private.write_text("{}\n")
        capsys.readouterr()
        assert main(["validate", "verifier", str(circ), "--challenge", str(challenge),
                     "--response", str(response)]) == 1
        assert capsys.readouterr().err == f"error: {private} lacks f1\n"


def _malformed_json(base: dict, number: str, integer: str | None = None) -> list:
    """(form, file bytes, the error after the file name) for each malformed
    form of a JSON object file whose valid content is `base`."""
    dump = lambda d: json.dumps(d).encode()
    forms = [
        ("not-an-object", dump(list(base.values())), f" lacks {next(iter(base))}"),
        ("missing-field", dump({k: v for k, v in base.items() if k != number}), f" lacks {number}"),
        ("null-field", dump({**base, number: None}), f": {number} is not a number"),
        ("string-for-number", dump({**base, number: str(base[number])}), f": {number} is not a number"),
        ("invalid-json", dump(base)[:-1], ": invalid JSON: Expecting ',' delimiter"),
        ("not-utf8", b'{"note": "\xff", ' + dump(base)[1:], ": line 1: byte 0xff is not UTF-8"),
    ]
    if integer is None:
        return forms + [("true-for-number", dump({**base, number: True}), f": {number} is not a number")]
    return forms + [
        ("float-for-integer", dump({**base, integer: 4.7}), f": {integer} is not an integer"),
        ("true-for-integer", dump({**base, integer: True}), f": {integer} is not an integer"),
    ]


_CHALLENGE = {"circuit_hash": "0" * 16, "k": 16, "index_seed": 0, "delta": 0.03}
MALFORMED_JSON = [
    *[("params", *form) for form in _malformed_json({"C1": 2e-9, "C2": 1.1, "C3": 7e-9}, "C2")],
    *[("private", *form) for form in _malformed_json({"f1": 0.2}, "f1")],
    *[("challenge", *form) for form in _malformed_json(_CHALLENGE, "delta", "k")],
]


@pytest.mark.parametrize("which, form, content, error", MALFORMED_JSON,
                         ids=[f"{w}-{f}" for w, f, _, _ in MALFORMED_JSON])
def test_malformed_json_input_is_one_error_line_naming_the_file(which, form, content, error,
                                                                tmp_path, capsys):
    circ = tmp_path / "circ.txt"
    run_ok(["generate", "--rows", "2", "--cols", "3", "--depth", "6", "-o", str(circ)])
    bad = tmp_path / f"{which}.json"
    if which == "params":
        argv = ["plan", str(circ), "--params", str(bad)]
    elif which == "challenge":
        argv = ["validate", "claimant", str(circ), "--challenge", str(bad),
                "-o", str(tmp_path / "r.amp")]
    else:
        challenge, response = tmp_path / "ch.json", tmp_path / "r.amp"
        run_ok(["validate", "verifier", str(circ), "--challenge", str(challenge), "--k", "16",
                "--private", str(bad)])
        run_ok(["validate", "claimant", str(circ), "--challenge", str(challenge),
                "-o", str(response)])
        argv = ["validate", "verifier", str(circ), "--challenge", str(challenge),
                "--private", str(bad), "--response", str(response)]
    bad.write_bytes(content)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}{error}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def _gridsim_error_classes():
    """Every *Error class defined in a gridsim module."""
    found = {}
    for info in pkgutil.iter_modules(gridsim.__path__):
        module = importlib.import_module(f"gridsim.{info.name}")
        for name, obj in vars(module).items():
            if (name.endswith("Error") and isinstance(obj, type)
                    and issubclass(obj, Exception) and obj.__module__ == module.__name__):
                found[name] = obj
    return [found[name] for name in sorted(found)]


def test_error_classes_are_found():
    names = {cls.__name__ for cls in _gridsim_error_classes()}
    assert {"CircuitError", "ParseError", "CostModelError", "CampaignError", "MergeError",
            "SamplingError", "ValidationError"} <= names


@pytest.mark.parametrize("cls", _gridsim_error_classes(), ids=lambda cls: cls.__name__)
def test_every_gridsim_error_ends_as_a_clean_error(cls, monkeypatch, capsys):
    # main's except clause names base classes only; every error the
    # library defines must still end as one "error:" line and exit code 1
    try:
        exc = cls("boom")
    except TypeError:  # ParseError takes a line number first
        exc = cls(1, "boom")

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_audit", fail)
    assert main(["audit", "circ.txt"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "boom" in captured.err
