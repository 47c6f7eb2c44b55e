import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsim.benchgen import GenSpec, generate
from gridsim.circuit import GateKind
from gridsim.costmodel import (
    BenchResult,
    CostModelError,
    CostParams,
    calibrate,
    forecast,
    load_rate_card,
    plan_law_args,
    total_seconds,
)
from gridsim.pathsum import make_plan


def synthetic_results(c1, c2, c3, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    grid = [
        (8, 8, 12, 0, 6, 0, 1.0, 16),
        (8, 8, 8, 4, 6, 2, 1.0, 16),
        (9, 9, 14, 0, 4, 0, 1.0, 4096),
        (10, 10, 10, 6, 8, 3, 0.25, 16),
        (8, 8, 16, 2, 5, 1, 0.5, 1024),
        (12, 12, 12, 0, 2, 0, 1.0, 65536),
    ]
    for q1, q2, d_p, d_b, x_p, x_b, f, n_a in grid:
        t = total_seconds(CostParams(c1, c2, c3), f, q1, q2, d_p, d_b, x_p, x_b, n_a)
        t *= 1.0 + noise * rng.standard_normal()
        rows.append(BenchResult(q1, q2, d_p, d_b, x_p, x_b, f, n_a, t))
    return rows


class TestCalibrate:
    def test_recovers_exact_constants(self):
        report = calibrate(synthetic_results(2e-9, 1.1, 7e-9))
        assert report.params.C1 == pytest.approx(2e-9, rel=1e-9)
        assert report.params.C2 == pytest.approx(1.1, rel=1e-9)
        assert report.params.C3 == pytest.approx(7e-9, rel=1e-9)
        assert report.rel_residual < 1e-9

    def test_recovers_within_one_percent_under_noise(self):
        report = calibrate(synthetic_results(2e-9, 1.1, 7e-9, noise=0.002, seed=4))
        assert report.params.C1 == pytest.approx(2e-9, rel=0.01)
        assert report.params.C2 == pytest.approx(1.1, rel=0.01)
        assert report.params.C3 == pytest.approx(7e-9, rel=0.01)

    def test_needs_three_runs(self):
        with pytest.raises(CostModelError):
            calibrate(synthetic_results(2e-9, 1.1, 7e-9)[:2])

    def test_degenerate_design_rejected(self):
        row = synthetic_results(2e-9, 1.1, 7e-9)[0]
        with pytest.raises(CostModelError):
            calibrate([row, row, row])

    def test_non_physical_fit_rejected(self):
        # the 65,536-amplitude run made 10x faster asks for a negative C3
        rows = synthetic_results(2e-9, 1.1, 7e-9)
        rows[5] = dataclasses.replace(rows[5], seconds=rows[5].seconds / 10)
        with pytest.raises(CostModelError, match="^fit produced non-physical constants"):
            calibrate(rows)

    def test_residuals_reported_per_run(self):
        rows = synthetic_results(2e-9, 1.1, 7e-9, noise=0.01, seed=1)
        report = calibrate(rows)
        assert len(report.per_run) == len(rows)
        assert report.rel_residual == pytest.approx(
            float(np.sqrt(np.mean(np.array(report.per_run) ** 2)))
        )


class TestFromPlan:
    def test_radix4_plans_enter_the_law_by_their_spaces(self):
        # the law counts 2^x_p prefixes; 8 iSWAP digits span 4^8 = 2^16
        circuit = generate(GenSpec(4, 4, 20, "v2", GateKind.ISWAP, seed=0))
        plan = make_plan(circuit, fidelity=0.25, seed=0)
        assert (plan.x_p, plan.x_b, plan.prefix_space) == (8, 2, 65536)
        row = BenchResult.from_plan(plan, 16, 1.0)
        assert (row.x_p, row.x_b) == (16, 4)

    def test_a_plan_enters_under_the_law_parameter_names(self):
        circuit = generate(GenSpec(4, 4, 20, "v2", GateKind.ISWAP, seed=0))
        plan = make_plan(circuit, fidelity=0.25, seed=0)
        args = plan_law_args(plan)
        law = list(inspect.signature(total_seconds).parameters)
        assert list(args) == law[1:-1]  # all but params and n_a
        assert args == dict(f=0.25, q1=plan.cut.n_a, q2=plan.cut.n_b, d_p=plan.d_p,
                            d_b=plan.d_b, x_p=16.0, x_b=4.0)
        row = BenchResult.from_plan(plan, 16, 1.0)
        assert row == BenchResult(**args, n_a=16, seconds=1.0)


class TestTotalSeconds:
    def test_fidelity_fraction_scales_sim_term_only(self):
        params = CostParams(2e-9, 1.0, 7e-9)
        args = dict(q1=10, q2=10, d_p=12, d_b=4, x_p=6, x_b=2, n_a=100)
        collect = params.C3 * 2.0 ** (args["x_p"] + args["x_b"]) * args["n_a"]
        full = total_seconds(params, 1.0, **args)
        half = total_seconds(params, 0.5, **args)
        assert half - collect == pytest.approx((full - collect) / 2, rel=1e-12)

    def test_collection_term_ignores_fidelity(self):
        params = CostParams(1e-9, 1.0, 5e-9)
        lo = total_seconds(params, 0.25, 8, 8, 10, 0, 4, 0, 1000)
        hi = total_seconds(params, 1.0, 8, 8, 10, 0, 4, 0, 1000)
        assert hi - lo == pytest.approx(0.75 * total_seconds(params, 1.0, 8, 8, 10, 0, 4, 0, 0))

    def test_rejects_bad_fidelity(self):
        params = CostParams(1e-9, 1.0, 1e-9)
        for f in (0.0, -0.5, 1.5):
            with pytest.raises(CostModelError):
                total_seconds(params, f, 8, 8, 10, 0, 4, 0, 16)

    @given(
        f=st.sampled_from([0.125, 0.5, 1.0]),
        q=st.integers(4, 14),
        d_p=st.integers(1, 30),
        d_b=st.integers(0, 10),
        x_p=st.integers(0, 20),
        x_b=st.integers(0, 6),
        n_a=st.integers(0, 1 << 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_every_dimension(self, f, q, d_p, d_b, x_p, x_b, n_a):
        params = CostParams(2e-9, 1.1, 7e-9)
        base = total_seconds(params, f, q, q, d_p, d_b, x_p, x_b, n_a)
        assert total_seconds(params, f, q + 1, q, d_p, d_b, x_p, x_b, n_a) >= base
        assert total_seconds(params, f, q, q, d_p + 1, d_b, x_p, x_b, n_a) >= base
        assert total_seconds(params, f, q, q, d_p, d_b + 1, x_p, x_b, n_a) >= base
        assert total_seconds(params, f, q, q, d_p, d_b, x_p + 1, x_b, n_a) >= base
        assert total_seconds(params, f, q, q, d_p, d_b, x_p, x_b + 1, n_a) >= base
        assert total_seconds(params, f, q, q, d_p, d_b, x_p, x_b, n_a + 1) >= base


class TestForecast:
    def test_accounting_identities(self):
        params = CostParams(2e-9, 1.1, 7e-9)
        fc = forecast(params, 0.5, 10, 10, 12, 4, 8, 2, 4096, p=4, n_nodes=3, machine="std-16")
        assert fc.T_bill == pytest.approx(params.omega_at(4) * fc.T_tot / 4)
        assert fc.T_clock == pytest.approx(fc.T_bill / 3)
        assert fc.M_node == 4 * fc.M_proc
        assert fc.M_cluster == 3 * fc.M_node
        price = params.rate_card["std-16"]["price_per_hour"]
        assert fc.cost == pytest.approx(fc.T_bill * price)

    def test_memory_ignores_depth(self):
        params = CostParams(2e-9, 1.1, 7e-9)
        a = forecast(params, 1.0, 10, 10, 8, 0, 4, 0, 16)
        b = forecast(params, 1.0, 10, 10, 30, 0, 4, 0, 16)
        assert a.M_proc == b.M_proc

    def test_small_amplitude_buffer_is_negligible(self):
        params = CostParams(2e-9, 1.1, 7e-9)
        empty = forecast(params, 1.0, 16, 16, 8, 0, 4, 0, 0)
        small = forecast(params, 1.0, 16, 16, 8, 0, 4, 0, 64)
        assert (small.M_proc - empty.M_proc) / empty.M_proc < 0.01

    def test_block_memory_formula(self):
        params = CostParams(1e-9, 1.0, 1e-9)
        fc = forecast(params, 1.0, 9, 11, 8, 0, 4, 0, 100)
        assert fc.M_proc == (2 * (512 + 2048) + 100) * 8

    def test_unknown_machine_lists_known(self):
        params = CostParams(2e-9, 1.1, 7e-9)
        with pytest.raises(CostModelError, match="std-16"):
            forecast(params, 1.0, 8, 8, 8, 0, 4, 0, 16, machine="quantum-9000")

    def test_process_and_node_validation(self):
        params = CostParams(2e-9, 1.1, 7e-9)
        with pytest.raises(CostModelError):
            forecast(params, 1.0, 8, 8, 8, 0, 4, 0, 16, p=0)
        with pytest.raises(CostModelError):
            forecast(params, 1.0, 8, 8, 8, 0, 4, 0, 16, n_nodes=0)


class TestConstants:
    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize("consts", [
        (NAN, 1.1, 7e-9), (2e-9, NAN, 7e-9), (2e-9, 1.1, NAN),
        (INF, 1.1, 7e-9), (2e-9, INF, 7e-9), (2e-9, 1.1, INF),
        (0.0, 1.1, 7e-9), (2e-9, -1.1, 7e-9), (2e-9, 1.1, -7e-9),
    ])
    def test_non_finite_or_out_of_range_constants_are_rejected(self, consts):
        with pytest.raises(CostModelError, match="^constants must be finite"):
            CostParams(*consts)

    def test_zero_c2_and_c3_are_accepted(self):
        assert CostParams(2e-9, 0.0, 0.0).C3 == 0.0


class TestOmega:
    def test_interpolates_between_anchors(self):
        params = CostParams(1e-9, 1.0, 1e-9, omega={1: 1.0, 4: 1.2, 16: 1.6})
        assert params.omega_at(1) == 1.0
        assert params.omega_at(4) == 1.2
        assert params.omega_at(10) == pytest.approx(1.4)
        assert params.omega_at(64) == 1.6  # clamps past the last anchor

    def test_rejects_bad_tables(self):
        with pytest.raises(CostModelError):
            CostParams(1e-9, 1.0, 1e-9, omega={2: 1.1})
        with pytest.raises(CostModelError):
            CostParams(1e-9, 1.0, 1e-9, omega={1: 1.0, 4: 0.9})
        with pytest.raises(CostModelError):
            CostParams(1e-9, 1.0, 1e-9).omega_at(0)


class TestValidation:
    def test_bench_result_rejects_nonsense(self):
        with pytest.raises(CostModelError):
            BenchResult(0, 8, 10, 0, 4, 0, 1.0, 16, 1.0)
        with pytest.raises(CostModelError):
            BenchResult(8, 8, 10, 0, 4, 0, 2.0, 16, 1.0)
        with pytest.raises(CostModelError):
            BenchResult(8, 8, 10, 0, 4, 0, 1.0, 16, 0.0)

    def test_params_reject_nonsense(self):
        with pytest.raises(CostModelError):
            CostParams(0.0, 1.0, 1e-9)

    def test_rate_card_entries(self):
        card = load_rate_card()
        assert {"std-16", "std-16-preemptible", "highmem-32", "highmem-32-preemptible"} <= set(
            card
        )
        for row in card.values():
            assert row["price_per_hour"] > 0

    def test_rate_card_from_a_file(self, tmp_path):
        path = tmp_path / "card.json"
        path.write_text('{"machines": {"tiny-2": {"vcpus": 2, "price_per_hour": 0.1}}}\n')
        assert load_rate_card(str(path)) == {"tiny-2": {"vcpus": 2, "price_per_hour": 0.1}}
        path.write_text('{"tiny-2": {"vcpus": 2}}\n')
        with pytest.raises(CostModelError, match="^rate card entry 'tiny-2' lacks price_per_hour$"):
            load_rate_card(str(path))
