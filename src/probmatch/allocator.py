"""The process's heap policy: keep freed memory for the next instance.

The experiment runner (``bench._run``) and training (``predictor.train``)
both build and free the same few megabytes of arrays for every instance.
Under glibc's default top pad that memory is handed back to the kernel after
every instance and faulted in again for the next. ``keep_freed_heap`` asks
glibc, once per process, to keep it instead. A library call that reaches it
changes the allocator of the whole process, not just of its own work.
"""

from __future__ import annotations

import ctypes
import sys

# glibc's mallopt parameter M_TOP_PAD, and the pad set: the bytes of freed
# heap that glibc keeps at the top instead of returning to the kernel. Each
# handcrafted instance at n = 100 builds and frees about 12 MB (K's triplets,
# its CSR view and the assembly temporaries; 2,937 minor page faults x
# 4 KiB). Under glibc's default pad that memory is handed back after every
# instance and faulted in again for the next, 5 to 7 ms of kernel time per
# instance; with this pad it is kept, and the peak does not move.
_M_TOP_PAD = -2
_TOP_PAD_BYTES = 64 << 20
_heap_kept = False


def _libc():
    """The C library already loaded into this process."""
    return ctypes.CDLL(None)


def keep_freed_heap():
    """Once per process, on Linux, ask glibc to keep ``_TOP_PAD_BYTES`` of
    freed heap for the next instance (``mallopt(M_TOP_PAD, ...)``). Pool
    workers fork later and inherit it. Where the C library has no ``mallopt``
    or the call fails (returns 0), nothing changes."""
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    if sys.platform != "linux":
        return
    try:
        mallopt = _libc().mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)
