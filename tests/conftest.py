"""Shared test settings: property tests draw a fixed, small set of examples."""

from hypothesis import settings

# derandomize: the same examples on every run, so a Tier-1 result is
# reproducible; no deadline, because a first call can pay for imports.
settings.register_profile("tier1", derandomize=True, max_examples=40, deadline=None,
                          database=None)
settings.load_profile("tier1")
