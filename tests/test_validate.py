import numpy as np
import pytest

from gridsim.benchgen import GenSpec, generate
from gridsim.circuit import all_cuts, choose_cut, cross_gates
from gridsim.statevec import fetch_amplitudes, run_full
from gridsim.validate import (
    Challenge,
    ValidationError,
    calibrate_delta,
    challenge_indices,
    claimant_round,
    issue_challenge,
    read_challenge,
    verifier_cut,
    verifier_round,
    write_challenge,
)


# the narrow grid leaves one cut with only 6 cross gates, so truncated
# fidelity concentrates tightly and rounds stay fast at 14 qubits
@pytest.fixture(scope="module")
def circuit():
    return generate(GenSpec(2, 7, 24, "v2", seed=3))


@pytest.fixture(scope="module")
def vcut(circuit):
    return verifier_cut(circuit)


@pytest.fixture(scope="module")
def delta(circuit, vcut):
    return calibrate_delta(circuit, k=2048, rounds=6, seed=5, cut=vcut)


class TestChallengeIndices:
    def test_exhaustive_when_k_covers_the_space(self):
        np.testing.assert_array_equal(challenge_indices(6, 64, 3), np.arange(64))

    def test_rejects_oversized_k(self):
        with pytest.raises(ValidationError):
            challenge_indices(6, 65, 3)

    def test_large_draw_is_distinct_sorted_in_range(self):
        idx = challenge_indices(20, 100000, 7)
        assert idx.size == 100000
        assert np.unique(idx).size == idx.size
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < (1 << 20)

    def test_deterministic_in_seed(self):
        a = challenge_indices(12, 500, 11)
        b = challenge_indices(12, 500, 11)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, challenge_indices(12, 500, 12))


class TestChallengeLifecycle:
    def test_secret_fidelity_stays_private(self, circuit, tmp_path):
        ch = issue_challenge(circuit, k=64, seed=4)
        assert ch.f1 is not None and 0.05 <= ch.f1 <= 0.25
        assert "f1" not in ch.public_dict()
        path = tmp_path / "challenge.json"
        write_challenge(path, ch)
        assert "f1" not in path.read_text()
        got = read_challenge(path)
        assert got.f1 is None
        assert got.circuit_hash == ch.circuit_hash
        assert (got.k, got.index_seed, got.delta) == (ch.k, ch.index_seed, ch.delta)

    def test_issue_validates_k(self, circuit):
        with pytest.raises(ValidationError):
            issue_challenge(circuit, k=1 << 15)

    def test_challenge_field_validation(self):
        with pytest.raises(ValidationError):
            Challenge("abc", 0, 1, 0.01)
        with pytest.raises(ValidationError):
            Challenge("abc", 4, 1, 0.0)
        with pytest.raises(ValidationError):
            Challenge("abc", 4, 1, 0.01, f1=1.2)
        with pytest.raises(ValidationError):
            Challenge("abc", 4, 1, 0.2, f1=0.1)  # delta wider than f1

    def test_read_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"k": 4}\n')
        with pytest.raises(ValidationError):
            read_challenge(path)


class TestRounds:
    def test_honest_claimant_passes(self, circuit, vcut, delta):
        ch = issue_challenge(circuit, k=2048, delta=delta, seed=21, f1=0.15)
        response = claimant_round(circuit, ch, engine="exact")
        result = verifier_round(circuit, ch, response, path_seed=91, cut=vcut)
        assert result.passed
        assert result.f_e == pytest.approx(result.f1_realized, abs=delta)

    def test_random_claimant_fails(self, circuit, vcut, delta):
        ch = issue_challenge(circuit, k=2048, delta=delta, seed=22, f1=0.15)
        response = claimant_round(circuit, ch, engine="random", seed=8)
        result = verifier_round(circuit, ch, response, path_seed=92, cut=vcut)
        assert not result.passed
        assert abs(result.f_e) < 0.05  # uncorrelated response scores near zero

    def test_underfidelity_claimant_fails(self, circuit, vcut, delta):
        ch = issue_challenge(circuit, k=2048, delta=delta, seed=23, f1=0.2)
        response = claimant_round(circuit, ch, engine="hybrid", fidelity=0.01, seed=9)
        result = verifier_round(circuit, ch, response, path_seed=93, cut=vcut)
        assert not result.passed

    def test_verifier_requires_secret(self, circuit, vcut):
        ch = issue_challenge(circuit, k=64, seed=1)
        public = Challenge(ch.circuit_hash, ch.k, ch.index_seed, ch.delta)
        response = claimant_round(circuit, public, engine="exact")
        with pytest.raises(ValidationError):
            verifier_round(circuit, public, response, path_seed=1, cut=vcut)

    def test_wrong_circuit_rejected(self, circuit):
        other = generate(GenSpec(2, 7, 24, "v2", seed=4))
        ch = issue_challenge(circuit, k=64, seed=1)
        with pytest.raises(ValidationError):
            claimant_round(other, ch, engine="exact")
        response = claimant_round(circuit, ch, engine="exact")
        with pytest.raises(ValidationError):
            verifier_round(other, ch, response, path_seed=1)

    def test_wrong_indices_rejected(self, circuit, vcut):
        ch = issue_challenge(circuit, k=64, seed=1)
        response = claimant_round(circuit, ch, engine="exact")
        shifted = fetch_amplitudes(run_full(circuit), np.arange(1, 65))
        with pytest.raises(ValidationError):
            verifier_round(circuit, ch, shifted, path_seed=1, cut=vcut)

    def test_unknown_engine_rejected(self, circuit):
        ch = issue_challenge(circuit, k=64, seed=1)
        with pytest.raises(ValidationError):
            claimant_round(circuit, ch, engine="prayer")

    def test_default_cut_is_the_verifier_cut(self, circuit, vcut):
        assert choose_cut(circuit) != vcut
        ch = issue_challenge(circuit, k=256, seed=41, f1=0.15)
        response = claimant_round(circuit, ch, engine="exact")
        got = verifier_round(circuit, ch, response, path_seed=57)
        assert got == verifier_round(circuit, ch, response, path_seed=57, cut=vcut)

    def test_unset_path_seed_comes_from_the_unseeded_generator(self, circuit, vcut, monkeypatch):
        ch = issue_challenge(circuit, k=256, seed=42, f1=0.15)
        response = claimant_round(circuit, ch, engine="exact")
        seeded = np.random.default_rng

        def fixed_when_unseeded(seed=None):
            return seeded(77 if seed is None else seed)

        monkeypatch.setattr(np.random, "default_rng", fixed_when_unseeded)
        drawn = verifier_round(circuit, ch, response, cut=vcut)
        path_seed = int(seeded(77).integers(1 << 62))
        assert drawn == verifier_round(circuit, ch, response, path_seed=path_seed, cut=vcut)
        assert drawn != verifier_round(circuit, ch, response, path_seed=path_seed + 1, cut=vcut)

    def test_round_is_deterministic_given_seeds(self, circuit, vcut, delta):
        ch = issue_challenge(circuit, k=2048, delta=delta, seed=31, f1=0.12)
        response = claimant_round(circuit, ch, engine="exact")
        a = verifier_round(circuit, ch, response, path_seed=55, cut=vcut)
        b = verifier_round(circuit, ch, response, path_seed=55, cut=vcut)
        assert a == b


class TestCalibration:
    def test_delta_has_a_floor(self, circuit, vcut):
        got = calibrate_delta(circuit, k=64, rounds=4, seed=2, cut=vcut, floor=0.5)
        assert got == 0.5

    def test_delta_is_small_on_a_concentrated_cut(self, delta):
        assert delta < 0.05

    def test_needs_two_rounds(self, circuit):
        with pytest.raises(ValidationError):
            calibrate_delta(circuit, k=64, rounds=1)


class TestVerifierCut:
    def test_minimizes_cross_gates(self, circuit, vcut):
        best = min(len(cross_gates(circuit, c)) for c in all_cuts(circuit))
        assert len(cross_gates(circuit, vcut)) == best

    def test_deterministic(self, circuit):
        assert verifier_cut(circuit) == verifier_cut(circuit)
