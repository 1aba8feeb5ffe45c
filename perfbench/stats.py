"""Statistics helpers for the benchmark: medians, quartiles, tail
percentiles and span self-time.  Pure functions over plain lists, so
test_perfbench.py can pin them on fixed inputs."""

import statistics

# Standard percentiles, lowest first; tail_percentile picks the highest
# one that still has enough samples beyond it.
TAIL_PERCENTILES = (50, 90, 99, 99.9)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them
    (a single value is its own quartiles)."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, p):
    """p-th percentile (0..100) with linear interpolation between the
    closest ranks."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(values, beyond=10):
    """The highest of TAIL_PERCENTILES with at least `beyond` samples
    above it, or None when even the median has fewer."""
    best = None
    for p in TAIL_PERCENTILES:
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary.
        if round(len(values) * (100 - p) / 100.0, 9) >= beyond:
            best = p
    return best


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover (overlapping children are
    merged, so nothing is subtracted twice).

    `spans` is a list of (id, parent, t0, t1); returns {id: seconds}.
    """
    children = {}
    for sid, parent, t0, t1 in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _parent, t0, t1 in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, [])):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out
