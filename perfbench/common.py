"""Shared helpers for the benchmark: sample statistics, host fingerprint.

Every timing is host time from ``time.perf_counter``; a name with
``virtual`` in it is the simulation's modelled time instead.
"""

import os
import platform
import resource
import sys

#: Percentiles a ``*_tail`` metric may report, highest first. The tail is
#: the highest of these with at least :data:`TAIL_MIN_BEYOND` samples
#: beyond it. The steps are coarse on purpose: a run's sample count
#: would have to change by about 2x before a tail switches percentile,
#: so a faster or slower program is still compared at the same one.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(values, pct):
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count):
    """The ladder percentile with at least 10 of ``count`` samples beyond."""
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct
    raise ValueError("%d samples are too few for a tail" % count)


def latency_summary(values):
    """``{"p50", "tail", "tail_pct", "samples"}`` of one latency sample."""
    pct = tail_percentile(len(values))
    return {
        "p50": percentile(values, 50.0),
        "tail": percentile(values, pct),
        "tail_pct": pct,
        "samples": len(values),
    }


def median(values):
    return percentile(values, 50.0)


def rss_peak_mib():
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint():
    """What a reader needs to compare two runs' numbers."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
        "platform": sys.platform,
    }


def metric(value, unit, **extra):
    """One named metric as printed: value, unit, optional context."""
    entry = {"value": value, "unit": unit}
    entry.update(extra)
    return entry
