"""A ledger for the oracle tests that also keeps each occupancy level.

``CostLedger`` keeps only the current level, its peak and a count of the
changes taken. ``LevelLedger`` also lists every level a change sets, in
order, so the oracle tests can compare the whole sequence. The tests put
it in place of ``workload_harness.CostLedger`` with ``monkeypatch``.
"""

from typing import List

from enclavesim.cost_model import CostLedger


class LevelLedger(CostLedger):
    def __init__(self):
        super().__init__()
        self.levels: List[float] = []

    def occupy(self, delta_mib: float) -> None:
        super().occupy(delta_mib)
        self.levels.append(self.occupancy)
