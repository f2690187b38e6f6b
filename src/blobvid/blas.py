"""Pin numpy's bundled OpenBLAS to one thread while an op runs.

numpy wheels ship OpenBLAS in the sibling directory numpy.libs; loading it
again through ctypes returns the library numpy already uses. Its thread count
is process-wide, so every thread sees the pin while it is held. Nested and
concurrent holders share one pin: the first saves the caller's count and the
last restores it. Standard library only; where no bundled OpenBLAS is found,
one_thread() changes nothing and reports that.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading
from pathlib import Path

_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
            "openblas_{}_num_threads")

_lock = threading.Lock()
_holders = 0
_saved = 0
_funcs = None  # (get, set), or () when no library was found; looked up on first use


def _lookup():
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in _SYMBOLS:
            get = getattr(handle, sym.format("get"), None)
            put = getattr(handle, sym.format("set"), None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return ()


@contextlib.contextmanager
def one_thread():
    """Run the body with OpenBLAS at one thread; yields whether the pin took
    effect. The caller's thread count is back when the last holder exits,
    also on an exception."""
    global _funcs, _holders, _saved
    with _lock:
        if _funcs is None:
            _funcs = _lookup()
        if _funcs and _holders == 0:
            _saved = _funcs[0]()
            _funcs[1](1)
        _holders += 1
    try:
        yield bool(_funcs)
    finally:
        with _lock:
            _holders -= 1
            if _funcs and _holders == 0:
                _funcs[1](_saved)
