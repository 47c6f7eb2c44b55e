import os
import shutil

import numpy as np
import pytest

from gridsim import pathsum, statevec
from gridsim.benchgen import GenSpec, generate
from gridsim.circuit import circuit_hash
from gridsim.orchestrator import (
    CampaignError,
    MergeError,
    merge,
    request_hash,
    run_campaign,
    shard,
    status,
)
from gridsim.pathsum import make_plan, run_approx
from gridsim.statevec import AmplitudeBatch, read_amplitudes, run_full, write_amplitudes


@pytest.fixture(scope="module")
def small():
    circuit = generate(GenSpec(3, 3, 12, "v2", seed=5))
    plan = make_plan(circuit, fidelity=0.5, x_b=0, seed=1)
    requests = np.arange(64, dtype=np.int64)
    return circuit, plan, requests


class TestSharding:
    def test_one_job_per_retained_prefix(self, small):
        circuit, plan, requests = small
        jobs = shard(circuit, plan, requests)
        assert [j.prefix for j in jobs] == [int(p) for p in plan.retained]

    def test_job_count_follows_fidelity(self):
        circuit = generate(GenSpec(3, 3, 12, "v2", seed=5))
        full = make_plan(circuit, fidelity=1.0, x_b=0, seed=1)
        assert len(shard(circuit, full, [0])) == full.prefix_space
        quarter = make_plan(circuit, fidelity=0.25, x_b=0, seed=1)
        assert len(shard(circuit, quarter, [0])) == max(1, round(0.25 * full.prefix_space))

    def test_filenames_are_distinct_and_tagged(self, small):
        circuit, plan, requests = small
        jobs = shard(circuit, plan, requests)
        names = {j.filename for j in jobs}
        assert len(names) == len(jobs)
        assert all(n.startswith(jobs[0].plan_hash) and n.endswith(".amp") for n in names)

    def test_plan_hash_tracks_inputs(self, small):
        circuit, plan, requests = small
        base = shard(circuit, plan, requests)[0].plan_hash
        other_req = shard(circuit, plan, requests[:32])[0].plan_hash
        assert base != other_req
        other_plan = make_plan(circuit, fidelity=0.5, x_b=0, seed=2)
        assert shard(circuit, other_plan, requests)[0].plan_hash != base


class TestRunCampaign:
    def test_matches_direct_truncated_run(self, small, tmp_path):
        circuit, plan, requests = small
        result = run_campaign(circuit, plan, requests, str(tmp_path))
        direct = run_approx(circuit, plan, requests)
        # shards round-trip exactly; only float64 summation order differs
        np.testing.assert_allclose(result.batch.amps, direct.amps, atol=1e-7)

    def test_full_fidelity_campaign_matches_statevec(self, tmp_path):
        circuit = generate(GenSpec(3, 4, 14, "v2", seed=2))
        plan = make_plan(circuit, fidelity=1.0, seed=0)
        requests = np.arange(4096, dtype=np.int64)
        result = run_campaign(circuit, plan, requests, str(tmp_path), workers=2)
        state = run_full(circuit).amps.ravel()
        np.testing.assert_allclose(result.batch.amps, state, atol=1e-5)

    def test_worker_count_does_not_change_output(self, small, tmp_path):
        circuit, plan, requests = small
        one = run_campaign(circuit, plan, requests, str(tmp_path / "w1"), workers=1)
        three = run_campaign(circuit, plan, requests, str(tmp_path / "w3"), workers=3)
        np.testing.assert_array_equal(one.batch.amps, three.batch.amps)

    def test_resume_after_lost_shards_is_bit_identical(self, small, tmp_path):
        circuit, plan, requests = small
        shard_dir = str(tmp_path)
        first = run_campaign(circuit, plan, requests, shard_dir)
        jobs = shard(circuit, plan, requests)
        for job in jobs[::3]:
            os.remove(os.path.join(shard_dir, job.filename))
        st = status(circuit, plan, requests, shard_dir)
        assert not st.complete
        resumed = run_campaign(circuit, plan, requests, shard_dir)
        np.testing.assert_array_equal(first.batch.amps, resumed.batch.amps)

    def test_killed_jobs_retry_and_converge(self, small, tmp_path):
        circuit, plan, requests = small
        clean = run_campaign(circuit, plan, requests, str(tmp_path / "clean"))
        victims = [int(p) for p in plan.retained[::4]]
        faulty = run_campaign(
            circuit,
            plan,
            requests,
            str(tmp_path / "faulty"),
            fault_spec={p: 1 for p in victims},
        )
        assert faulty.rounds >= 2
        np.testing.assert_array_equal(clean.batch.amps, faulty.batch.amps)

    def test_permanent_failure_aborts_with_prefixes(self, small, tmp_path):
        circuit, plan, requests = small
        doomed = int(plan.retained[0])
        with pytest.raises(CampaignError) as err:
            run_campaign(
                circuit,
                plan,
                requests,
                str(tmp_path),
                retry_limit=1,
                fault_spec={doomed: 99},
            )
        assert doomed in err.value.failed
        assert err.value.exit_codes[doomed] == 3
        assert f"{doomed} (exit code 3)" in str(err.value)

    def test_abort_names_the_job_each_worker_stopped_on(self, small, tmp_path):
        # the one worker dies on the first job of its share in both rounds,
        # so the other 15 jobs never ran
        circuit, plan, requests = small
        doomed = int(plan.retained[0])
        with pytest.raises(CampaignError) as err:
            run_campaign(circuit, plan, requests, str(tmp_path), retry_limit=1, fault_spec={doomed: 99})
        n = len(plan.retained)
        assert str(err.value) == (
            f"{n} shard jobs unfinished after 2 rounds: "
            f"workers stopped on prefixes {doomed} (exit code 3); {n - 1} more not reached"
        )
        assert err.value.failed == tuple(int(p) for p in plan.retained)
        assert set(err.value.exit_codes.values()) == {3}
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".amp")]

    def test_each_shard_records_the_round_that_wrote_it(self, small, tmp_path):
        circuit, plan, requests = small
        victims = {int(p) for p in plan.retained[::2]}
        result = run_campaign(
            circuit, plan, requests, str(tmp_path), workers=2, fault_spec=dict.fromkeys(victims, 1)
        )
        assert result.rounds == len(result.child_exit_codes) == 2
        for job in shard(circuit, plan, requests):
            _, header = read_amplitudes(os.path.join(tmp_path, job.filename))
            assert header["attempt"] == ("2" if job.prefix in victims else "1")

    def test_raising_worker_names_exit_code_1(self, small, tmp_path, monkeypatch):
        circuit, plan, requests = small

        def broken(*args, **kwargs):
            raise RuntimeError("worker failure under test")

        monkeypatch.setattr("gridsim.orchestrator.run_batched", broken)
        with pytest.raises(CampaignError) as err:
            run_campaign(circuit, plan, requests, str(tmp_path), retry_limit=0)
        assert not isinstance(err.value, MergeError)
        assert set(err.value.failed) == {int(p) for p in plan.retained}
        assert set(err.value.exit_codes.values()) == {1}
        assert "(exit code 1)" in str(err.value)

    def test_dying_job_stops_its_worker_before_the_next_tile(self, small, tmp_path, monkeypatch):
        # tiles of 4 jobs; the second tile's second job dies mid-commit, so
        # the worker computed two tiles and committed the five jobs before it
        circuit, plan, requests = small
        row = 8 * ((1 << plan.cut.n_a) + (1 << plan.cut.n_b)) + 16 * requests.size
        monkeypatch.setattr(statevec, "_SLICE_BYTES", 4 * row)
        assert pathsum.prefix_tile(plan, requests.size) == 4
        calls = tmp_path / "calls"

        def counted(*args, **kwargs):
            with open(calls, "a") as f:  # the worker is a forked child
                f.write(f"{len(kwargs['prefixes'])}\n")
            return pathsum.run_batched(*args, **kwargs)

        monkeypatch.setattr("gridsim.orchestrator.run_batched", counted)
        doomed = int(plan.retained[5])
        shard_dir = str(tmp_path / "s")
        with pytest.raises(CampaignError) as err:
            run_campaign(circuit, plan, requests, shard_dir, retry_limit=0, fault_spec={doomed: 1})
        assert calls.read_text().split() == ["4", "4"]
        assert status(circuit, plan, requests, shard_dir).done == tuple(int(p) for p in plan.retained[:5])
        n = len(plan.retained)
        assert str(err.value) == (
            f"{n - 5} shard jobs unfinished after 1 rounds: "
            f"workers stopped on prefixes {doomed} (exit code 3); {n - 6} more not reached"
        )

    def test_jobs_of_a_tile_share_its_seconds(self, small, tmp_path):
        circuit, plan, requests = small
        result = run_campaign(circuit, plan, requests, str(tmp_path))
        assert len(plan.retained) <= pathsum.prefix_tile(plan, requests.size)
        assert len(set(result.per_job_seconds.values())) == 1

    def test_fault_run_sweeps_only_its_own_tmp_files(self, small, tmp_path):
        circuit, plan, requests = small
        foreign = tmp_path / "0123456789abcdef.00000001.amp.tmp.4242"
        foreign.write_text("another campaign's uncommitted shard\n")
        victims = {int(p): 1 for p in plan.retained[::2]}
        run_campaign(circuit, plan, requests, str(tmp_path), workers=2, fault_spec=victims)
        assert [n for n in os.listdir(tmp_path) if ".tmp." in n] == [foreign.name]

    def test_report_file(self, small, tmp_path):
        circuit, plan, requests = small
        report_path = tmp_path / "report.json"
        result = run_campaign(
            circuit,
            plan,
            requests,
            str(tmp_path / "s"),
            report_path=str(report_path),
            forecast_seconds=12.5,
        )
        import json

        report = json.loads(report_path.read_text())
        assert report["jobs"] == len(plan.retained)
        assert report["forecast_seconds"] == 12.5
        assert set(report["per_job_seconds"]) == {str(int(p)) for p in plan.retained}
        assert report["child_exit_codes"] == [[0]]
        assert result.job_seconds_total == pytest.approx(
            sum(float(v) for v in report["per_job_seconds"].values()), abs=1e-5
        )

    def test_rejects_bad_worker_count(self, small, tmp_path):
        circuit, plan, requests = small
        with pytest.raises(ValueError):
            run_campaign(circuit, plan, requests, str(tmp_path), workers=0)


class TestStatus:
    def test_counts_done_and_pending(self, small, tmp_path):
        circuit, plan, requests = small
        shard_dir = str(tmp_path)
        st = status(circuit, plan, requests, shard_dir)
        assert st.total == len(plan.retained) and not st.done and not st.complete
        run_campaign(circuit, plan, requests, shard_dir)
        st = status(circuit, plan, requests, shard_dir)
        assert st.complete and len(st.done) == st.total and not st.pending

    def test_corrupt_file_counts_as_pending(self, small, tmp_path):
        circuit, plan, requests = small
        shard_dir = str(tmp_path)
        run_campaign(circuit, plan, requests, shard_dir)
        victim = shard(circuit, plan, requests)[0]
        with open(os.path.join(shard_dir, victim.filename), "w") as f:
            f.write("not an amplitude file\n")
        st = status(circuit, plan, requests, shard_dir)
        assert victim.prefix in st.pending


class TestMerge:
    def test_missing_shard_rejected(self, small, tmp_path):
        circuit, plan, requests = small
        shard_dir = str(tmp_path)
        run_campaign(circuit, plan, requests, shard_dir)
        victim = shard(circuit, plan, requests)[2]
        os.remove(os.path.join(shard_dir, victim.filename))
        with pytest.raises(MergeError, match="missing") as err:
            merge(circuit, plan, requests, shard_dir)
        assert err.value.failed == (victim.prefix,)

    def test_duplicate_prefix_rejected(self, small, tmp_path):
        circuit, plan, requests = small
        shard_dir = str(tmp_path)
        run_campaign(circuit, plan, requests, shard_dir)
        victim = shard(circuit, plan, requests)[1]
        src = os.path.join(shard_dir, victim.filename)
        batch, header = read_amplitudes(src)
        write_amplitudes(src + ".copy.amp", batch, digits=17, header=header)
        with pytest.raises(MergeError, match="duplicate"):
            merge(circuit, plan, requests, shard_dir)

    def test_backup_copy_of_a_shard_is_ignored(self, small, tmp_path):
        # only the file a job names is that job's shard
        circuit, plan, requests = small
        clean = run_campaign(circuit, plan, requests, str(tmp_path / "clean"))
        shard_dir = str(tmp_path / "backed-up")
        run_campaign(circuit, plan, requests, shard_dir)
        name = shard(circuit, plan, requests)[3].filename
        shutil.copy(os.path.join(shard_dir, name), os.path.join(shard_dir, "backup-" + name))
        assert status(circuit, plan, requests, shard_dir).complete
        again = run_campaign(circuit, plan, requests, shard_dir)
        assert again.rounds == 0
        assert again.batch.amps.tobytes() == clean.batch.amps.tobytes()
        assert merge(circuit, plan, requests, shard_dir).amps.tobytes() == clean.batch.amps.tobytes()

    def test_shards_that_also_bind_circuit_and_requests_still_count(self, small, tmp_path):
        # shards whose headers also carry the circuit and request hashes,
        # which the plan hash already binds
        circuit, plan, requests = small
        shard_dir = str(tmp_path)
        clean = run_campaign(circuit, plan, requests, shard_dir).batch
        extra = {"circuit": circuit_hash(circuit), "requests": request_hash(requests)}
        for job in shard(circuit, plan, requests):
            path = os.path.join(shard_dir, job.filename)
            batch, header = read_amplitudes(path)
            header = {"plan": header.pop("plan"), **extra, **header}
            write_amplitudes(path, batch, digits=None, header=header)
            assert (tmp_path / job.filename).read_text().startswith(f"# plan {job.plan_hash}\n# circuit ")
        assert status(circuit, plan, requests, shard_dir).complete
        assert merge(circuit, plan, requests, shard_dir).amps.tobytes() == clean.amps.tobytes()
        assert run_campaign(circuit, plan, requests, shard_dir).rounds == 0

    def test_every_bad_shard_is_named(self, small, tmp_path):
        circuit, plan, requests = small
        shard_dir = str(tmp_path)
        run_campaign(circuit, plan, requests, shard_dir)
        jobs = shard(circuit, plan, requests)
        _damage_payload(os.path.join(shard_dir, jobs[1].filename), _flip_one_char)
        os.remove(os.path.join(shard_dir, jobs[4].filename))
        with pytest.raises(MergeError) as err:
            merge(circuit, plan, requests, shard_dir)
        assert err.value.failed == (jobs[1].prefix, jobs[4].prefix)
        assert f"prefix {jobs[1].prefix}: amplitude payload does not match its sha256" in str(err.value)
        assert f"prefix {jobs[4].prefix}: missing" in str(err.value)

    def test_corrupted_shard_rejected(self, small, tmp_path):
        circuit, plan, requests = small
        shard_dir = str(tmp_path)
        run_campaign(circuit, plan, requests, shard_dir)
        victim = shard(circuit, plan, requests)[0]
        path = os.path.join(shard_dir, victim.filename)
        lines = open(path).read().splitlines()
        with open(path, "w") as f:
            f.write("\n".join(lines[: len(lines) // 2]))
        with pytest.raises(MergeError):
            merge(circuit, plan, requests, shard_dir)

    def test_foreign_campaign_files_are_ignored(self, small, tmp_path):
        circuit, plan, requests = small
        shard_dir = str(tmp_path)
        expected = run_campaign(circuit, plan, requests, shard_dir).batch
        other = make_plan(circuit, fidelity=0.5, x_b=0, seed=9)
        run_campaign(circuit, other, requests, shard_dir)
        again = merge(circuit, plan, requests, shard_dir)
        np.testing.assert_array_equal(expected.amps, again.amps)

    def test_tampered_header_rejected(self, small, tmp_path):
        circuit, plan, requests = small
        shard_dir = str(tmp_path)
        run_campaign(circuit, plan, requests, shard_dir)
        jobs = shard(circuit, plan, requests)
        victim, donor = jobs[0], jobs[1]
        src = os.path.join(shard_dir, donor.filename)
        batch, header = read_amplitudes(src)
        header["prefix"] = str(victim.prefix)
        os.remove(os.path.join(shard_dir, victim.filename))
        os.remove(src)
        write_amplitudes(os.path.join(shard_dir, victim.filename), batch, digits=17, header=header)
        with pytest.raises(MergeError):
            merge(circuit, plan, requests, shard_dir)

    def test_shard_copied_to_another_jobs_filename_rejected(self, small, tmp_path):
        circuit, plan, requests = small
        shard_dir = str(tmp_path)
        run_campaign(circuit, plan, requests, shard_dir)
        donor, victim = shard(circuit, plan, requests)[:2]
        shutil.copy(os.path.join(shard_dir, donor.filename),
                    os.path.join(shard_dir, victim.filename))
        want = f"prefix {victim.prefix}: header does not match the job$"
        with pytest.raises(MergeError, match=want) as err:
            merge(circuit, plan, requests, shard_dir)
        assert err.value.failed == (victim.prefix,)

    def test_exact_shard_answering_other_indices_rejected(self, small, tmp_path):
        circuit, plan, requests = small
        shard_dir = str(tmp_path)
        run_campaign(circuit, plan, requests, shard_dir)
        victim = shard(circuit, plan, requests)[1]
        path = os.path.join(shard_dir, victim.filename)
        batch, header = read_amplitudes(path)
        other = AmplitudeBatch(batch.indices[::-1], batch.amps)
        write_amplitudes(path, other, digits=None, header=header)
        want = f"prefix {victim.prefix}: answers different request indices$"
        with pytest.raises(MergeError, match=want) as err:
            merge(circuit, plan, requests, shard_dir)
        assert err.value.failed == (victim.prefix,)


def _damage_payload(path, damage):
    lines = open(path).read().splitlines()
    assert all(line.startswith("#") for line in lines[:-1])
    lines[-1] = damage(lines[-1])
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _flip_one_char(payload):
    mid = len(payload) // 2
    return payload[:mid] + ("B" if payload[mid] == "A" else "A") + payload[mid + 1 :]


class TestExactShards:
    def test_round_trip_is_bit_for_bit(self, small, tmp_path):
        rng = np.random.default_rng(4)
        batch = AmplitudeBatch(
            rng.integers(0, 1 << 62, size=257),
            rng.standard_normal(257) * 1e-5 + 1j * rng.standard_normal(257),
        )
        batch.amps[:3] = [-0.0, 5e-324, 1 / 3]
        path = tmp_path / "exact.amp"
        write_amplitudes(path, batch, digits=None, header={"tag": "exact"})
        back, header = read_amplitudes(path)
        assert header["tag"] == "exact" and header["count"] == "257"
        assert back.indices.tobytes() == batch.indices.tobytes()
        assert back.amps.tobytes() == batch.amps.tobytes()

        # a committed shard rewritten from what it reads back is the same file
        circuit, plan, requests = small
        run_campaign(circuit, plan, requests, str(tmp_path / "s"))
        src = tmp_path / "s" / shard(circuit, plan, requests)[0].filename
        shard_batch, shard_header = read_amplitudes(src)
        write_amplitudes(tmp_path / "again.amp", shard_batch, digits=None, header=shard_header)
        assert (tmp_path / "again.amp").read_bytes() == src.read_bytes()

    def test_flipped_payload_character_is_pending_and_fails_merge(self, small, tmp_path):
        circuit, plan, requests = small
        shard_dir = str(tmp_path)
        run_campaign(circuit, plan, requests, shard_dir)
        victim = shard(circuit, plan, requests)[1]
        _damage_payload(os.path.join(shard_dir, victim.filename), _flip_one_char)
        st = status(circuit, plan, requests, shard_dir)
        assert st.pending == (victim.prefix,)
        with pytest.raises(MergeError, match="sha256") as err:
            merge(circuit, plan, requests, shard_dir)
        assert err.value.failed == (victim.prefix,)

    def test_campaign_recomputes_damaged_shard(self, small, tmp_path):
        circuit, plan, requests = small
        clean = run_campaign(circuit, plan, requests, str(tmp_path / "clean"))
        shard_dir = str(tmp_path / "damaged")
        run_campaign(circuit, plan, requests, shard_dir)
        victim = shard(circuit, plan, requests)[1]
        _damage_payload(os.path.join(shard_dir, victim.filename), _flip_one_char)
        again = run_campaign(circuit, plan, requests, shard_dir)
        assert again.rounds == 1
        assert again.batch.amps.tobytes() == clean.batch.amps.tobytes()

    def test_truncated_payload_rejected(self, small, tmp_path):
        circuit, plan, requests = small
        shard_dir = str(tmp_path)
        run_campaign(circuit, plan, requests, shard_dir)
        victim = shard(circuit, plan, requests)[0]
        _damage_payload(os.path.join(shard_dir, victim.filename), lambda p: p[: len(p) // 2])
        with pytest.raises(MergeError):
            merge(circuit, plan, requests, shard_dir)

    @pytest.mark.parametrize("value", ["zz", "nan", "inf", "-1.0"])
    def test_bad_seconds_header_is_pending_named_and_recomputed(self, small, tmp_path, value):
        # the sha256 covers the payload only, so a header edit leaves it intact
        circuit, plan, requests = small
        clean = run_campaign(circuit, plan, requests, str(tmp_path / "clean"))
        shard_dir = str(tmp_path / "edited")
        run_campaign(circuit, plan, requests, shard_dir)
        victim = shard(circuit, plan, requests)[1]
        path = os.path.join(shard_dir, victim.filename)
        lines = open(path).read().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("# seconds "))
        lines[at] = f"# seconds {value}\n"
        with open(path, "w") as f:
            f.writelines(lines)
        assert status(circuit, plan, requests, shard_dir).pending == (victim.prefix,)
        want = f"prefix {victim.prefix}: seconds header '{value}' is not a finite number >= 0$"
        with pytest.raises(MergeError, match=want) as err:
            merge(circuit, plan, requests, shard_dir)
        assert err.value.failed == (victim.prefix,)
        again = run_campaign(circuit, plan, requests, shard_dir)
        assert again.rounds == 1
        assert again.batch.amps.tobytes() == clean.batch.amps.tobytes()
        assert all(0 <= s < float("inf") for s in again.per_job_seconds.values())

    def test_count_header_disagreeing_with_payload_is_pending_and_recomputed(self, small, tmp_path):
        circuit, plan, requests = small
        clean = run_campaign(circuit, plan, requests, str(tmp_path / "clean"))
        shard_dir = str(tmp_path / "edited")
        run_campaign(circuit, plan, requests, shard_dir)
        victim = shard(circuit, plan, requests)[1]
        path = os.path.join(shard_dir, victim.filename)
        text = open(path).read()
        line = f"# count {len(requests)}\n"
        assert text.count(line) == 1
        with open(path, "w") as f:  # payload and its sha256 left intact
            f.write(text.replace(line, f"# count {len(requests) + 1}\n"))
        assert status(circuit, plan, requests, shard_dir).pending == (victim.prefix,)
        with pytest.raises(MergeError, match=f"prefix {victim.prefix}: ") as err:
            merge(circuit, plan, requests, shard_dir)
        assert err.value.failed == (victim.prefix,)
        again = run_campaign(circuit, plan, requests, shard_dir)
        assert again.rounds == 1
        assert again.batch.amps.tobytes() == clean.batch.amps.tobytes()
