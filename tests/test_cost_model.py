import itertools
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
    sum_in_order,
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
        assert sum(ledger.breakdowns.get("r", {}).values()) == pytest.approx(
            math.fsum(ms for _, ms in charges))
        for component in COMPONENTS:
            assert ledger.breakdowns.get("r", {}).get(component, 0.0) == \
                pytest.approx(math.fsum(ms for c, ms in charges
                                        if c == component))

    def test_requests_isolated(self):
        ledger = CostLedger()
        ledger.charge(EPC_EXPAND, 5.0, 1)
        ledger.charge(EPC_EXPAND, 7.0, 2)
        assert ledger.breakdowns == {1: {EPC_EXPAND: 5.0},
                                     2: {EPC_EXPAND: 7.0}}


class TestSumInOrder:
    def test_adds_left_to_right(self):
        # Each 1.0 rounds away against 2**53 on its own; a compensated
        # sum (builtin ``sum`` from Python 3.12, ``math.fsum``) keeps both.
        values = [2.0 ** 53, 1.0, 1.0]
        assert sum_in_order(values) == 2.0 ** 53
        assert sum_in_order(values[1:] + values[:1]) == 2.0 ** 53 + 2.0

    def test_empty_is_zero(self):
        assert sum_in_order([]) == 0.0


class TestLedgerOccupancy:
    @given(st.lists(st.integers(-50, 50), max_size=60))
    def test_peak_equals_max_prefix_sum(self, steps):
        ledger = CostLedger()
        for step in steps:
            ledger.occupy(step)
        prefix_sums = itertools.accumulate(steps, initial=0)
        assert ledger.peak == max(prefix_sums)
        assert ledger.count == sum(steps)

    def test_returned_units_give_base_plus_peak(self):
        # Counted units add once: a running sum of 0.1 MiB steps would
        # reach 0.9999999999999999.
        ledger = CostLedger()
        for step in [1] * 10 + [-1] * 10:
            ledger.occupy(step)
        assert ledger.peak_mib(0.0, 0.1) == 1.0
        assert ledger.peak_mib(207.0, 0.1) == 208.0

    def test_leak_is_an_invariant_violation(self):
        ledger = CostLedger()
        ledger.occupy(1)
        with pytest.raises(errors.InvariantViolation):
            ledger.peak_mib(207.0, 25.0)

    def test_negative_occupancy_rejected(self):
        # More units returned than taken is as much a leak as fewer.
        ledger = CostLedger()
        ledger.occupy(1)
        ledger.occupy(-2)
        with pytest.raises(errors.InvariantViolation):
            ledger.peak_mib(207.0, 25.0)

    def test_absorbed_change_is_a_config_error(self):
        # A page added to a 1e300 MiB base rounds away, so the peak would
        # leave it out.
        ledger = CostLedger()
        ledger.occupy(1)
        ledger.occupy(-1)
        with pytest.raises(errors.ConfigError):
            ledger.peak_mib(1e300, 4096 / (1 << 20))

    def test_overflow_to_inf_is_a_config_error(self):
        ledger = CostLedger()
        ledger.occupy(2)
        ledger.occupy(-2)
        with pytest.raises(errors.ConfigError):
            ledger.peak_mib(0.0, 1e308)


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
