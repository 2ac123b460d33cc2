"""A ledger for the database oracle tests that also keeps each occupancy
count.

``CostLedger`` keeps only the current count of held units and its peak.
``CountLedger`` also lists every count a change sets, in order, so the
database oracle tests can compare the whole sequence. The tests put it in
place of ``workload_harness.CostLedger`` with ``monkeypatch``; a
serverless run keeps no ledger.
"""

from typing import List

from enclavesim.cost_model import CostLedger


class CountLedger(CostLedger):
    def __init__(self):
        super().__init__()
        self.counts: List[int] = []

    def occupy(self, units: int) -> None:
        super().occupy(units)
        self.counts.append(self.count)
