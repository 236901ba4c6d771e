"""Allocator setting shared by the stages that churn large numpy temporaries."""

from __future__ import annotations

import ctypes
import functools
import sys

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def keep_work_arrays_on_the_heap() -> None:
    """Serve blocks below 32 MB from glibc's reusable heap (Linux only).

    The forward quadrature goes through bursts of numpy temporaries of 1 to
    4 MB per column, and a nucleus integral of 1/t^2 whose line runs close
    to a zero through extended-precision blocks of up to 1 MB. glibc maps a
    block above its mmap threshold afresh, and gives heap memory above its
    trim threshold back to the system when it is freed, so each burst is
    page-faulted and zeroed anew. Both thresholds start at 128 KB and rise
    only when a larger mapped block is freed (the trim threshold to twice
    its size), up to 32 MB and 64 MB. This sets them to that top from the
    start, so the work runs at the same speed whether or not some large
    array has come and gone before it: on 2 vCPUs, a 513 x 45 round trip of
    the curved families ran its forward about 20 % faster than at the
    starting thresholds. The setting holds for the whole process, so it is
    made at the first forward transform or the first nucleus integral,
    whichever comes first, and never on import.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
