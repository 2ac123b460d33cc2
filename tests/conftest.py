"""Hypothesis profiles. Tier-1 runs each property test at the default
budget; ``--hypothesis-profile=deep`` runs ten times as many examples,
which CI uses for the serverless and database oracles, the ledger's
occupancy count, the fork state machine, the summary emitter and the
launch measurements, memoized and not. The deep profile also widens the
serverless oracle's small-scope tie check (``small_scope`` in
``test_workload_harness.py``): arrival times 0-3 ms, up to 6 arrivals and
plan steps of 0-2 ms."""

from hypothesis import settings

settings.register_profile("deep", max_examples=1000)
