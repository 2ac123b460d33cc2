"""Hypothesis profiles. Tier-1 runs each property test at the default
budget; ``--hypothesis-profile=deep`` runs ten times as many examples,
which CI uses for the serverless and database oracles, the ledger's
occupancy count, the fork state machine, the summary emitter and the
launch measurements, memoized and not."""

from hypothesis import settings

settings.register_profile("deep", max_examples=1000)
