"""Statistics shared by the comparison command and its tests.

The rules follow the benchmark method this repository uses for claims:
a change improves a metric when it wins at least nine tenths of at least ten
runs paired with the parent's and its median beats the parent's by more than
the distance between the parent's quartiles; it is worse when its median is
worse by more than the metric's bound; and the comparison is unresolved when
the parent's own quartile spread is wider than the bound, unless every run of
the change beats every run of the parent.
"""

import statistics

IMPROVED = "improved"
WITHIN = "within bound"
WORSE = "worse"
UNRESOLVED = "unresolved"

MIN_PAIRS_FOR_CLAIM = 10
WIN_SHARE_FOR_CLAIM = 0.9


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a > b if direction == "higher" else a < b


def win_share(pairs, direction):
    """Share of (parent, change) pairs the change won; ties count for
    neither side."""
    if not pairs:
        return 0.0
    wins = sum(1 for parent, change in pairs if better(change, parent, direction))
    return wins / len(pairs)


def verdict(pairs, direction, bound):
    """Verdict for one metric on one workload from (parent, change) pairs."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = (c_med - p_med) if direction == "higher" else (p_med - c_med)
    if (len(pairs) >= MIN_PAIRS_FOR_CLAIM
            and win_share(pairs, direction) >= WIN_SHARE_FOR_CLAIM
            and gain > p_q3 - p_q1):
        return IMPROVED
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if relative_spread(parent) > bound and not all_better:
        return UNRESOLVED
    if -gain > bound * abs(p_med):
        return WORSE
    return WITHIN
