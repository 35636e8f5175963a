"""Statistics and output helpers of the repo benchmark (standard library only).

The benchmark binary writes raw samples; everything that turns samples into
reported numbers lives here so that one rule serves every metric:

* a timing is reported as its median and as the highest percentile of the
  ladder below that still has at least ten samples beyond it, each with its
  sample count (so a p99 needs at least 1000 samples);
* a request's latency is measured from the time it was due, not from when
  the generator got round to sending it, and the generator's lateness
  (sent - due) is reported on its own.
"""

import json
import math

# Percentiles in per-mille, so the samples-beyond test is exact integer math.
TAIL_LADDER_PERMILLE = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile of `values` (p in [0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    permille = round(p * 10)
    rank = max(1, -(-permille * len(ordered) // 1000))
    return ordered[min(rank, len(ordered)) - 1]


def median(values):
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND of `n` samples
    beyond it; 50 when even the median has fewer (small runs)."""
    for q in TAIL_LADDER_PERMILLE:
        if n * (1000 - q) >= MIN_BEYOND * 1000:
            return q / 10.0
    return 50.0


def summarize(values):
    """Median, tail percentile and tail value of a timing, with its count."""
    p = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": median(values),
        "tail_p": p,
        "tail": percentile(values, p),
    }


def latencies_ms(requests):
    """Latency of each (due, sent, done) request, from its due time, in ms."""
    return [(done - due) * 1e3 for due, _sent, done in requests]


def lateness_ms(requests):
    """How late the generator sent each request, in ms (never negative)."""
    return [max(0.0, sent - due) * 1e3 for due, sent, _done in requests]


def percentile_label(p):
    return "p%g" % p


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last output line: exactly these four keys; each
    metric is {"value": <number with all its digits>, "unit": <unit>}."""
    if not isinstance(attempted, int) or not isinstance(failed, int):
        raise TypeError("attempted and failed are whole numbers")
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    body = {}
    for name, (value, unit) in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("metric %s has no finite value" % name)
        body[name] = {"value": float(value), "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": attempted,
                       "failed": failed, "metrics": body})
