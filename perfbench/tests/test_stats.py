"""Tail percentile and compare verdicts."""

from compare import verdict
from stats import quartiles, tail


def test_tail_leaves_ten_samples_beyond():
    values = [float(i) for i in range(100)]
    value, percentile, samples = tail(values)
    assert value == 89.0 and percentile == 90.0 and samples == 100
    assert sum(v > value for v in values) == 10


def test_tail_of_ten_or_fewer_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_quartiles_of_one_value():
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_verdict_better_needs_nine_of_ten_wins_and_a_gap():
    faster = [v * 0.8 for v in PARENT]
    assert verdict(PARENT, faster, higher=False, bound=0.1) == ("better", 10)
    one_loss = faster[:9] + [PARENT[9] + 1]
    assert verdict(PARENT, one_loss, higher=False, bound=0.1)[0] == "better"
    two_losses = faster[:8] + [PARENT[8] + 1, PARENT[9] + 1]
    assert verdict(PARENT, two_losses, higher=False, bound=0.1)[0] == "unchanged"


def test_verdict_worse_beyond_bound():
    slower = [v * 1.2 for v in PARENT]
    assert verdict(PARENT, slower, higher=False, bound=0.1)[0] == "worse"
    assert verdict(PARENT, slower, higher=True, bound=0.1)[0] == "better"


def test_verdict_unresolved_when_parent_spread_exceeds_bound():
    noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 7.0, 13.0, 8.0, 12.0, 10.0]
    shifted = [v * 1.05 for v in noisy]
    assert verdict(noisy, shifted, higher=False, bound=0.1)[0] == "unresolved"
    assert verdict(noisy, noisy, higher=False, bound=0.7)[0] == "unchanged"
