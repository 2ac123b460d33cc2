import math

import pytest
from hypothesis import given, strategies as st

from enclavesim import errors
from enclavesim.cost_model import (
    COMPONENTS,
    CostLedger,
    CostParams,
    EPC_EXPAND,
    WORKLOADS,
    default_params,
    percentile,
)


class TestParams:
    def test_defaults_valid(self):
        default_params().validate()

    def test_exec_table_covers_all_workloads(self):
        params = default_params()
        assert set(params.t_exec) == set(WORKLOADS)

    def test_instance_pages_round_trip(self):
        params = default_params()
        assert params.instance_pages * params.page_mib == \
            pytest.approx(params.m_teemate_per_instance)

    def test_alias_band_enforced(self):
        params = default_params()
        params.t_alias = 5.0
        with pytest.raises(errors.InvariantViolation):
            params.validate()

    def test_negative_component_rejected(self):
        params = default_params()
        params.t_container_create = -1.0
        with pytest.raises(errors.InvariantViolation):
            params.validate()

    def test_unknown_workload(self):
        with pytest.raises(errors.UnknownKey):
            default_params().exec_ms("no-such-workload")

    def test_enclave_create_dwarfs_container_create(self):
        params = default_params()
        ratio = params.t_enclave_create / params.t_container_create
        assert 16.8 <= ratio <= 17.4

    def test_expand_scales_with_pages(self):
        params = default_params()
        assert params.t_epc_expand == pytest.approx(
            params.instance_pages * params.t_epc_alloc_per_page)


class TestLedgerCharges:
    def test_negative_duration_rejected(self):
        with pytest.raises(errors.NegativeDuration):
            CostLedger().charge(EPC_EXPAND, -0.1, 1)

    @given(st.lists(st.tuples(st.sampled_from(COMPONENTS),
                              st.floats(0, 1e6)),
                    max_size=40))
    def test_request_total_is_sum_of_charges(self, charges):
        ledger = CostLedger()
        for component, ms in charges:
            ledger.charge(component, ms, "r")
        assert ledger.request_total("r") == pytest.approx(
            math.fsum(ms for _, ms in charges))

    def test_requests_isolated(self):
        ledger = CostLedger()
        ledger.charge(EPC_EXPAND, 5.0, 1)
        ledger.charge(EPC_EXPAND, 7.0, 2)
        assert ledger.request_total(1) == 5.0
        assert ledger.request_total(2) == 7.0


class TestLedgerOccupancy:
    @given(st.lists(st.floats(-50, 50), max_size=60))
    def test_peak_equals_max_prefix_sum(self, deltas):
        ledger = CostLedger()
        level = 0.0
        peak = 0.0
        t = 0.0
        for delta in deltas:
            if level + delta < 0:
                delta = -level  # keep the reference walk non-negative too
            ledger.occupy(t, delta)
            level += delta
            peak = max(peak, level)
            t += 1.0
        assert ledger.peak_epc == pytest.approx(peak)
        assert ledger.occupancy == pytest.approx(level)

    def test_negative_occupancy_rejected(self):
        ledger = CostLedger()
        ledger.occupy(0.0, 10.0)
        with pytest.raises(errors.NegativeOccupancy):
            ledger.occupy(1.0, -20.0)

    def test_returned_within_a_micro_mib_passes(self):
        ledger = CostLedger()
        ledger.occupy(0.0, 207.0)
        ledger.occupy(1.0, 0.1)
        ledger.occupy(2.0, -0.1)
        ledger.check_returned(207.0)

    def test_leak_is_an_invariant_violation(self):
        ledger = CostLedger()
        ledger.occupy(0.0, 207.0)
        ledger.occupy(1.0, 25.0)
        with pytest.raises(errors.InvariantViolation):
            ledger.check_returned(207.0)

    def test_overflow_to_inf_is_a_config_error(self):
        ledger = CostLedger()
        ledger.occupy(0.0, 1e308)
        ledger.occupy(1.0, 1e308)
        ledger.occupy(2.0, -1e308)
        ledger.occupy(3.0, -1e308)
        assert ledger.occupancy == math.inf
        with pytest.raises(errors.ConfigError):
            ledger.check_returned(0.0)

    def test_absorbed_base_is_a_config_error(self):
        ledger = CostLedger()
        ledger.occupy(0.0, 207.0)
        ledger.occupy(1.0, 1e308)
        ledger.occupy(2.0, -1e308)
        assert ledger.occupancy == 0.0
        with pytest.raises(errors.ConfigError):
            ledger.check_returned(207.0)

    def test_rounding_below_zero_is_a_config_error(self):
        # Seven equal figures of 1e300 summed up and taken back off round
        # to a level below zero on the last step.
        ledger = CostLedger()
        for _ in range(7):
            ledger.occupy(0.0, 1e300)
        for _ in range(6):
            ledger.occupy(1.0, -1e300)
        with pytest.raises(errors.ConfigError):
            ledger.occupy(1.0, -1e300)

    def test_peak_between_includes_carry_in(self):
        ledger = CostLedger()
        ledger.occupy(0.0, 100.0)
        ledger.occupy(5.0, -40.0)
        assert ledger.peak_between(1.0, 4.0) == 100.0
        assert ledger.peak_between(1.0, 6.0) == 100.0
        assert ledger.peak_between(6.0, 9.0) == 60.0

    def test_peak_between_window_spike(self):
        ledger = CostLedger()
        ledger.occupy(0.0, 10.0)
        ledger.occupy(2.0, 90.0)
        ledger.occupy(3.0, -90.0)
        assert ledger.peak_between(1.0, 4.0) == 100.0
        assert ledger.peak_between(3.5, 4.0) == 10.0


class TestPercentile:
    def test_empty(self):
        assert percentile([], 99) == 0.0

    def test_median_of_odd_list(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_extremes(self):
        values = [float(v) for v in range(10)]
        assert percentile(values, 0) == 0.0
        assert percentile(values, 100) == 9.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
           st.floats(0, 100))
    def test_result_is_member_and_order_free(self, values, q):
        got = percentile(values, q)
        assert got in values
        assert percentile(list(reversed(values)), q) == got
