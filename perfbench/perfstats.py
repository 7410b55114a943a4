"""Statistics shared by the benchmark runner and its tests.

- ``tail_percentile``: the percentile rule for latency tails. A tail
  percentile is only reported where at least ``min_beyond`` samples lie
  beyond it, so the highest percentile that qualifies (from the median up
  to the target) is reported together with the sample count.
- ``self_times`` / ``layer_times`` / ``coverage``: span arithmetic for
  traced runs. A span's self time is its duration minus the durations of
  its direct children.
"""

import math


def tail_percentile(samples, target=99.0, min_beyond=10):
    """Highest percentile in [50, target] with >= ``min_beyond`` samples above.

    Uses the nearest-rank definition: percentile p is the sample at rank
    ceil(p / 100 * n) (1-based) of the sorted samples, and the samples
    beyond it are the n - rank larger ranks. Returns a dict with the
    percentile reported, its value, the sample count and the number of
    samples beyond it. When not even the median has ``min_beyond`` samples
    beyond it (n < 2 * min_beyond), no tail percentile can be estimated:
    the maximum is reported as percentile 100 with ``qualified`` False.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = min(math.ceil(round(target * n / 100.0, 9)), n - min_beyond)
    if rank < math.ceil(n / 2.0):
        return {"percentile": 100.0, "value": xs[-1], "n": n, "beyond": 0,
                "qualified": False}
    # The percentile that rank represents, capped at the target.
    percentile = min(target, 100.0 * rank / n)
    return {"percentile": percentile, "value": xs[rank - 1], "n": n,
            "beyond": n - rank, "qualified": True}


def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            kids[s["parent"]].append(i)
    return kids


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    kids = _children(spans)
    out = []
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        out.append(dur - sum(spans[k]["end"] - spans[k]["start"]
                             for k in kids[i]))
    return out


def _root(spans, i):
    while spans[i]["parent"] >= 0:
        i = spans[i]["parent"]
    return i


def layer_times(spans):
    """Self time per span name, as a mean over the root spans it occurs in.

    A layer that runs once per pass reports its time per pass; one that
    runs in each set-up reports its time per set-up.
    """
    selfs = self_times(spans)
    per_root = {}
    for i, s in enumerate(spans):
        root = _root(spans, i)
        key = (s["name"], root)
        per_root[key] = per_root.get(key, 0.0) + selfs[i]
    totals = {}
    for (name, _), t in per_root.items():
        totals.setdefault(name, []).append(t)
    return {name: sum(ts) / len(ts) for name, ts in totals.items()}


def coverage(spans, names, exclude=()):
    """Smallest share of a named span's duration its direct children cover.

    Direct children named in ``exclude`` are work outside the measured
    time (e.g. the counter walk of a traced run): their durations count
    in neither the covered part nor the whole.
    """
    kids = _children(spans)
    shares = []
    for i, s in enumerate(spans):
        if s["name"] not in names:
            continue
        dur = s["end"] - s["start"]
        covered = 0.0
        for k in kids[i]:
            d = spans[k]["end"] - spans[k]["start"]
            if spans[k]["name"] in exclude:
                dur -= d
            else:
                covered += d
        shares.append(covered / dur if dur > 0 else 1.0)
    return min(shares) if shares else None
