"""Section 5.2: JMS auto-acknowledge peak throughput.

Paper: *"In our experiments with a single SHB, we measured the peak
aggregate rate for 25 subscribers and 200 subscribers, which was 4K
events/s and 7.6K events/s respectively.  The bottleneck at the SHB for
JMS auto-acknowledge is the update and commit throughput of the
database ... the SHB used 4 JDBC connections each associated with a
thread ... Each thread explicitly batched all the waiting requests into
one database transaction."*

Auto-ack commits the per-subscriber CT at the SHB for every consumed
event; the offered rate is set above commit capacity, so the measured
consumption rate *is* the commit bottleneck.  More subscribers batch
better (one transaction covers more of them), hence the sub-linear
25 → 200 growth.
"""

import pytest
from conftest import full_scale, write_result

from repro.metrics.report import format_table
from repro.sim.experiments import run_jms_autoack

PAPER = {25: 4_000, 200: 7_600}
_results = {}


@pytest.mark.parametrize("n_subs,input_rate", [(25, 800), (200, 200)])
def test_jms_autoack_peak(benchmark, n_subs, input_rate):
    duration = 60_000.0 if full_scale() else 15_000.0
    result = benchmark.pedantic(
        lambda: run_jms_autoack(n_subs, input_rate=input_rate, duration_ms=duration),
        rounds=1,
        iterations=1,
    )
    assert not result.violations, result.violations
    _results[n_subs] = result

    # Commit-bound: consumption saturates below the offered rate.
    assert result.consumed_rate < result.offered_rate * 0.98
    # Within 25% of the paper's absolute figure.
    assert result.consumed_rate == pytest.approx(PAPER[n_subs], rel=0.25)

    if len(_results) == 2:
        r25, r200 = _results[25], _results[200]
        rows = [
            ["25 subscribers", f"{r25.consumed_rate:,.0f}", f"{PAPER[25]:,}",
             f"{r25.commits_per_s:,.0f}"],
            ["200 subscribers", f"{r200.consumed_rate:,.0f}", f"{PAPER[200]:,}",
             f"{r200.commits_per_s:,.0f}"],
        ]
        table = format_table(
            "Section 5.2: JMS auto-ack peak rate (events/s)",
            ["configuration", "measured", "paper", "commits/s"],
            rows,
        )
        ratio = r200.consumed_rate / r25.consumed_rate
        table += f"\n\n200/25-subscriber throughput ratio: {ratio:.2f}x (paper: 1.9x)"
        write_result("jms_autoack", table)
        # Sub-linear growth from batching, as in the paper.
        assert 1.2 < ratio < 3.0
