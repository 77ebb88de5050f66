"""Pausing CPython's cyclic garbage collector around bulk ingest.

Building a community allocates hundreds of thousands of small frozen
records in one go.  Each allocation counts towards the collector's
generation thresholds, so a bulk load triggers several full
(generation-2) passes that walk every record built so far -- and find
nothing, because records form no reference cycles.  Reference counting
still frees everything as usual while the collector is paused; only the
cycle search is deferred until the caller's state is restored.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["paused_gc"]


@contextmanager
def paused_gc() -> Iterator[None]:
    """Disable the cyclic collector for the block, then restore the caller's state.

    The collector is re-enabled on exit -- also when the block raises --
    only if it was enabled on entry, so nesting and callers that run with
    the collector off keep their setting.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
