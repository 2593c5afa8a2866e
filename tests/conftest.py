"""Hypothesis settings profiles, and the spy fixture.  tools/mutate.py
selects "mutate" with --hypothesis-profile; every other run keeps
hypothesis's default profile."""
import pytest
from hypothesis import Phase, settings

# A mutant is scored by whether the tests fail, not by how small the
# failing example is; shrinking it through in-process CLI runs took about
# 30 s per killed mutant in test_cli.
settings.register_profile("mutate", phases=[p for p in Phase if p is not Phase.shrink])


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name) replaces owner.name, for one test, by a wrapper that
    calls the original and appends (args, result) to the list it returns."""
    def install(owner, name):
        calls, original = [], getattr(owner, name)

        def recording(*args):
            calls.append((args, original(*args)))
            return calls[-1][1]

        monkeypatch.setattr(owner, name, recording)
        return calls
    return install
