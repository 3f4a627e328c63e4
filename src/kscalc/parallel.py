"""The ordered map over the fit loop's chart parts.

Work items are independent and results come back in item order, on the
calling thread.
"""

from __future__ import annotations


def parallel_map(fn, items, threads=1):
    """``[fn(x) for x in items]``, in item order, on the calling thread.

    ``threads`` is accepted and unused: the traced launcher of the
    benchmark (``perfbench/launch.py``) wraps this function by name and
    passes ``threads`` through.
    """
    return [fn(x) for x in items]
