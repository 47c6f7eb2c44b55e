"""Correctness checks on what a workload's passes produced.

Each check raises CheckFailed with the reason when an output is wrong.
The references are computed apart from gridsim (perfbench/reference.py,
scipy, closed forms written out here) or are laws the method must obey.
perfbench/selftest.py shows that each check rejects a wrong output.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import stats


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# sample ---------------------------------------------------------------------

# Fidelity and norm of a truncated state scatter around the retained
# fraction f: on the sample workload (3x7 d40, f=1/16, 20,000 committed
# amplitudes) 15 seeds gave f_e/f in 0.94-1.05 and N*mean|a|^2/f in 0.98-1.02.
SAMPLE_LAW_RTOL = 0.2
# complex64 engine against the complex128 replay, as a norm-relative error
SAMPLE_REPLAY_RTOL = 1e-4


def check_sample(
    f_realized: float,
    n_states: int,
    amps: np.ndarray,
    reference_amps: np.ndarray,
    exact_amps: np.ndarray,
    committed: np.ndarray,
    fed_probs: np.ndarray,
    accepted: np.ndarray,
    m_star: int,
) -> dict:
    """Truncated amplitudes, the laws they obey, and the frugal draw from them.

    - the amplitudes equal the complex128 replay of the same retained
      prefixes (perfbench/reference.py) within SAMPLE_REPLAY_RTOL;
    - the fidelity against exact amplitudes from the state-vector engine
      lies within SAMPLE_LAW_RTOL of the realised retained fraction;
    - the norm law N * mean |a|^2 = f_realized holds within SAMPLE_LAW_RTOL;
    - the probabilities handed to the sampler were rescaled by 1/f_realized,
      so that N * mean p is 1 (within SAMPLE_LAW_RTOL);
    - every accepted bitstring is a committed index, and the accepted count
      is within 5 sigma of sum(min(1, p*N/M')), its expectation.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    ref = np.asarray(reference_amps, dtype=np.complex128)
    err = float(np.linalg.norm(amps - ref) / np.linalg.norm(ref))
    _require(err <= SAMPLE_REPLAY_RTOL, f"amplitudes differ from the replay by {err:.3e} (norm-relative)")
    ex = np.asarray(exact_amps, dtype=np.complex128)
    f_e = float(abs(np.vdot(ex, amps)) ** 2 / (np.vdot(ex, ex).real * np.vdot(amps, amps).real))
    _require(
        abs(f_e / f_realized - 1) <= SAMPLE_LAW_RTOL,
        f"estimated fidelity {f_e:.4f} is not within {SAMPLE_LAW_RTOL} of f={f_realized:.4f}",
    )
    norm = float(n_states * np.mean(np.abs(amps) ** 2))
    _require(
        abs(norm / f_realized - 1) <= SAMPLE_LAW_RTOL,
        f"N*mean|a|^2 = {norm:.4f} is not within {SAMPLE_LAW_RTOL} of f={f_realized:.4f}",
    )
    scale = float(n_states * np.mean(fed_probs))
    _require(
        abs(scale - 1) <= SAMPLE_LAW_RTOL,
        f"N*mean p of the sampled batch is {scale:.4f}, not 1: probabilities were not rescaled by 1/f",
    )
    _require(bool(np.isin(accepted, committed).all()), "a sampled bitstring is not a committed index")
    expected = float(np.minimum(1.0, np.asarray(fed_probs) * n_states / m_star).sum())
    spread = 5 * math.sqrt(expected)
    _require(
        abs(accepted.size - expected) <= spread,
        f"{accepted.size} bitstrings accepted, {expected:.0f} +- {spread:.0f} expected",
    )
    return {"replay_rel_err": err, "fidelity_estimate": f_e, "norm": norm, "fed_mean_np": scale}


# exact ----------------------------------------------------------------------

EXACT_NORM_TOL = 1e-5
EXACT_KS_MAX = 0.01
EXACT_XEB_TOL = 0.05
EXACT_REPLAY_ATOL = 1e-4


def check_exact(
    state: np.ndarray,
    reference_indices: np.ndarray,
    reference_amps: np.ndarray,
    sampled_probs: np.ndarray,
) -> dict:
    """Full state and the frugal samples drawn from it.

    - the squared norm is within EXACT_NORM_TOL of 1;
    - N*p follows Porter-Thomas: KS distance to Exp(1) below EXACT_KS_MAX;
    - the linear cross-entropy N * mean p(sample) - 1 of the frugal samples
      is within EXACT_XEB_TOL of 1, as sampling a Porter-Thomas state gives;
    - on a fixed index subset the amplitudes equal the complex128 replay
      within EXACT_REPLAY_ATOL.
    """
    state = np.asarray(state)
    n_states = state.size
    probs = np.abs(state.astype(np.complex128)) ** 2
    norm = float(probs.sum())
    _require(abs(norm - 1) <= EXACT_NORM_TOL, f"squared norm {norm:.8f} is not 1")
    ks = float(stats.kstest(probs * n_states, "expon").statistic)
    _require(ks < EXACT_KS_MAX, f"Porter-Thomas KS statistic {ks:.4f} >= {EXACT_KS_MAX}")
    xeb = float(n_states * np.mean(sampled_probs) - 1)
    _require(abs(xeb - 1) <= EXACT_XEB_TOL, f"linear XEB of the samples {xeb:.4f} is not near 1")
    diff = float(np.abs(state[reference_indices] - reference_amps).max())
    _require(diff <= EXACT_REPLAY_ATOL, f"amplitudes differ from the replay by {diff:.3e}")
    return {"norm": norm, "ks": ks, "xeb": xeb, "replay_max_diff": diff}


# campaign -------------------------------------------------------------------

CAMPAIGN_ATOL = 1e-9


def check_campaign(merged: np.ndarray, in_process: np.ndarray) -> dict:
    """The merged shards equal the in-process batched engine on the same
    plan within CAMPAIGN_ATOL."""
    diff = float(np.abs(np.asarray(merged) - np.asarray(in_process)).max())
    _require(diff <= CAMPAIGN_ATOL, f"merge differs from the in-process engine by {diff:.3e}")
    return {"max_diff": diff}


def check_repeats(outputs: list) -> None:
    """Every pass of a run repeats the first bit for bit: same seed, same output."""
    _require(all(o == outputs[0] for o in outputs), "a later pass did not repeat the first pass's output")


# plan -----------------------------------------------------------------------

# Bonferroni over the digit columns of one plan: a uniform selector fails
# a plan's check about once in 10^4.
PLAN_CHI2_FAMILY_ALPHA = 1e-4


def check_retained(retained: np.ndarray, prefix_space: int, fidelity: float, radices) -> dict:
    """The retained prefix set is the count the method prescribes, sorted,
    distinct, in range, and uniform digit by digit (chi-square)."""
    retained = np.asarray(retained)
    want = max(1, round(fidelity * prefix_space))
    _require(retained.size == want, f"{retained.size} prefixes retained, max(1, round(f*space)) = {want}")
    _require(bool(np.all(np.diff(retained) > 0)), "retained ids are not sorted and distinct")
    _require(
        int(retained[0]) >= 0 and int(retained[-1]) < prefix_space,
        "a retained id lies outside the prefix space",
    )
    ids = retained.astype(np.int64)
    worst = 1.0
    alpha = PLAN_CHI2_FAMILY_ALPHA / len(radices)
    for base in reversed(list(radices)):
        counts = np.bincount(ids % base, minlength=base)
        ids = ids // base
        p = float(stats.chisquare(counts).pvalue)
        worst = min(worst, p)
        _require(p >= alpha, f"digit marginal {counts.tolist()} fails chi-square (p={p:.2e})")
    return {"retained": int(retained.size), "min_digit_p": worst}


def closed_form_forecast(c1, c2, c3, c4, omega_p, price, f, q1, q2, d_p, d_b, x_p, x_b, n_a, p, nodes, bpa):
    """The cost model written out from its definition (hours, bytes, price)."""
    w = q1 * 2.0**q1 + q2 * 2.0**q2
    t_tot = (c1 * f * 2.0**x_p * w * (d_p + c2 * 2.0**x_b * d_b) + c3 * 2.0 ** (x_p + x_b) * n_a) / 3600.0
    t_bill = omega_p * t_tot / p
    m_proc = (c4 * (2**q1 + 2**q2) + n_a) * bpa
    return {
        "T_tot": t_tot,
        "T_bill": t_bill,
        "T_clock": t_bill / nodes,
        "M_proc": m_proc,
        "M_node": p * m_proc,
        "M_cluster": nodes * p * m_proc,
        "cost": t_bill * price,
    }


def check_forecast(got: dict, want: dict) -> None:
    for key, value in want.items():
        _require(math.isclose(got[key], value, rel_tol=1e-12), f"forecast {key} = {got[key]!r}, closed form {value!r}")
