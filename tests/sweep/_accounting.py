"""Accounting invariants every ``SweepResult`` must satisfy.

The engine tallies its counters from the outcomes; the identity tests
call this on the results they already produce, so every execution mode
(serial, parallel, cached, warm, incremental) is held to the same
bookkeeping without running anything extra.
"""


def assert_accounting(result):
    outcomes = result.outcomes
    assert [o.index for o in outcomes] == list(range(len(outcomes)))
    assert (result.cache_hits + result.derived + result.executed
            + result.errors) == len(outcomes)
    assert result.cache_misses == len(outcomes) - result.cache_hits
    assert result.errors == sum(o.status == "error" for o in outcomes)
    assert sum(result.fallback_reasons.values()) == sum(
        o.fallback_reason is not None for o in outcomes)
