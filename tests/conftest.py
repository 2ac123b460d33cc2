"""Hypothesis profiles. Tier-1 runs each property test at the default
budget; ``--hypothesis-profile=deep`` runs ten times as many examples,
which CI uses for the serverless and database oracles, the ledger's
occupancy count, the fork state machine, the summary emitter and the
launch measurements, memoized and not. The deep profile also widens the
serverless oracle's small scope (``small_scope`` in
``test_workload_harness.py``) from arrival times of 0-2 ms, up to 5
arrivals, heads and locked steps of 0-1 ms and finishing steps of 1-2 ms
to arrival times of 0-3 ms, up to 6 arrivals, heads and locked steps of
0-2 ms and finishing steps of 1-3 ms; its refusal sweep, whose finishing
steps may take 0 ms, widens from 0-1 ms steps to 0-2 ms, and the seeds
of its hand-off check's Poisson traces (``hand_off_seeds``) widen from
0-19 to 0-199. It widens the database oracle's small-scope walk
(``db_small_scope`` in ``test_workload_harness.py``) from copy-on-write
windows of 1-5 requests and seeds 0-2 to windows of 1-8 requests and
seeds 0-5. It widens the small-scope fork walk (``fork_scopes`` in
``test_enclave_runtime.py``) from every sequence of 1-4 accesses on 2
database pages to 1-5 accesses on 2 pages and 1-4 on 3."""

from hypothesis import settings

settings.register_profile("deep", max_examples=1000)
