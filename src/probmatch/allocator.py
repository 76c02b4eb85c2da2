"""The process's heap policy and how it starts a pool of workers.

The experiment runner (``bench._run``) and training (``predictor.train``)
both build and free the same few megabytes of arrays for every instance.
Under glibc's default top pad that memory is handed back to the kernel after
every instance and faulted in again for the next. ``keep_freed_heap`` asks
glibc, once per process, to keep it instead. A library call that reaches it
changes the allocator of the whole process, not just of its own work.

Both also fork workers by one rule: ``usable_cpus`` bounds them,
``forks_safely`` says whether a default pool may start, ``pool_context``
picks the start method, and ``one_blas_thread`` holds BLAS at one thread for
the life of the pool.
"""

from __future__ import annotations

import contextlib
import ctypes
import multiprocessing
import os
import sys
import threading

# glibc's mallopt parameter M_TOP_PAD, and the pad set: the bytes of freed
# heap that glibc keeps at the top instead of returning to the kernel. Each
# handcrafted instance at n = 100 builds and frees about 8 MB (K's pairs,
# its CSR view and the assembly temporaries; tracemalloc's peak for one
# instance). Under glibc's default pad much of it is handed back after every
# instance and faulted in again for the next, about 1,300 minor page faults
# per instance; with this pad it is kept, the instances after the second
# take almost none, and the peak does not move. A fresh process's first
# instance faults its heap in either way, about 3,700 faults (measured on a
# 2-core x86-64 host, one instance per chunk).
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


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()) or 1


def forks_safely() -> bool:
    """Whether a default pool may start: on Linux, where workers fork, and
    while no other Python thread runs, since a fork can leave the child
    holding a lock that no thread will release. Elsewhere a spawned worker
    would import the calling script again."""
    return sys.platform == "linux" and threading.active_count() == 1


def pool_context():
    """The start method of a pool: fork on Linux, the platform's default
    (None) elsewhere, where a calling script needs an
    ``if __name__ == "__main__"`` guard."""
    return multiprocessing.get_context("fork") if sys.platform == "linux" else None


# OpenBLAS's thread-count functions, (get, set), as exported by numpy's
# scipy-openblas64, scipy's scipy-openblas and a plain OpenBLAS build.
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def openblas_threads() -> list:
    """``(get, set)`` of the thread count of each OpenBLAS library mapped
    into this process (found through ``/proc/self/maps``, so on Linux only);
    empty where none is found, as under another BLAS."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split(maxsplit=5)[-1].rstrip("\n") for line in f
                            if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREADS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                found.append((get, set_))
                break
    return found


@contextlib.contextmanager
def one_blas_thread():
    """Hold every OpenBLAS in this process at one thread, and give each its
    own count back on exit, also when the body raises. Workers forked inside
    start with one thread each, as under ``OPENBLAS_NUM_THREADS=1``: the
    predictor's small matrix products gain nothing from BLAS threads, whose
    spinning would crowd the CPUs the workers run on."""
    blas = openblas_threads()
    counts = [get() for get, _ in blas]
    for _, set_ in blas:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(blas, counts):
            set_(count)
