"""Shared test settings: one deterministic hypothesis profile for the suite."""

from hypothesis import settings

# derandomized so a run is repeatable; no per-example deadline because the
# first example pays for imports and caches
settings.register_profile("gwldp", derandomize=True, deadline=None,
                          max_examples=100)
settings.load_profile("gwldp")
