"""Order statistics and the serving-latency derivation.

Pure Python on purpose: ``compare.py`` runs without NumPy or the repo.
"""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation between
    order statistics; ``percentile(v, 50)`` is the median."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    at = (len(ordered) - 1) * q / 100.0
    lo = int(at)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (at - lo)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them, which is how the driver measures spread; a single value
    is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def request_times(clock_s, due_s, requests) -> dict[str, list[float]]:
    """Wall latencies of served requests on the virtual-time clock.

    ``clock_s[k]`` is the clock (the running sum of tick wall times)
    when tick ``k + 1`` ended; ticks are numbered from 1 as the
    scheduler numbers them.  ``due_s[rid]`` is the clock at the start of
    the loop iteration at which the request was due.  ``requests`` yields
    ``(rid, first_token_tick, done_tick, new_tokens)`` of finished
    requests; a decoding request emits one token per tick.  Returns
    milliseconds: ``ttft`` (due -> end of the tick that emitted the first
    token), ``latency`` (due -> end of the last tick), ``tpot`` per
    request (``(done - first) / (new_tokens - 1)``, skipped for one-token
    requests) and ``gap``, one entry per token after a request's first:
    the wall time of the tick that emitted it, which is the gap to the
    request's previous token.
    """
    out: dict[str, list[float]] = {
        "ttft": [], "tpot": [], "latency": [], "gap": [],
    }
    for rid, first_tick, done_tick, new_tokens in requests:
        first = clock_s[first_tick - 1]
        done = clock_s[done_tick - 1]
        out["ttft"].append((first - due_s[rid]) * 1e3)
        out["latency"].append((done - due_s[rid]) * 1e3)
        if new_tokens > 1:
            out["tpot"].append((done - first) / (new_tokens - 1) * 1e3)
        out["gap"].extend(
            (clock_s[tick - 1] - clock_s[tick - 2]) * 1e3
            for tick in range(first_tick + 1, done_tick + 1)
        )
    return out
