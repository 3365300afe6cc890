import pytest
from hypothesis import settings

from quivercount import verify
from quivercount.counting import CountTable
from quivercount.qpoly import QPoly

# Derandomized examples: the suite gives the same result on every run.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


@pytest.fixture
def corrupt_table(monkeypatch):
    """`verify` compares against a count table whose first entry is off by 1."""
    exact = verify.absolutely_stable_table

    def corrupted(ctx):
        entries = dict(exact(ctx).entries)
        first = min(entries, key=lambda a: (sum(a), a))
        entries[first] = entries[first] + QPoly.one()
        return CountTable(entries, ctx)

    monkeypatch.setattr(verify, "absolutely_stable_table", corrupted)
