"""Hypothesis settings profiles.  tools/mutate.py selects "mutate" with
--hypothesis-profile; every other run keeps hypothesis's default profile."""
from hypothesis import Phase, settings

# A mutant is scored by whether the tests fail, not by how small the
# failing example is; shrinking it through in-process CLI runs took about
# 30 s per killed mutant in test_cli.
settings.register_profile("mutate", phases=[p for p in Phase if p is not Phase.shrink])
