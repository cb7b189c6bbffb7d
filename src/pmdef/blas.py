"""The thread count of the OpenBLAS that numpy loaded: manifests record it,
``cli.run_cli`` pins it to one thread for every stage, and ``on_cores``
runs independent units on the cores while it is pinned.

Both calls are only reachable through numpy's own extension module, which
links that library; each is looked up once per process and is None where
there is none (numpy 1.x, other BLAS builds).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _openblas(name: str, argtypes: tuple, restype):
    try:
        fn = getattr(ctypes.cdll.LoadLibrary(np._core._multiarray_umath.__file__), name)
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = argtypes, restype
    return fn


@functools.cache
def threads_getter():
    return _openblas("scipy_openblas_get_num_threads64_", (), ctypes.c_int)


@functools.cache
def threads_setter():
    return _openblas("scipy_openblas_set_num_threads64_", (ctypes.c_int,), None)


def threads() -> int | None:
    """The BLAS thread count. OpenBLAS rounds some GEMMs (the grey-box
    classifier's 400->128 layer) differently at 1 and 2 threads, so a caller
    that wants results independent of it runs under ``one_thread``."""
    get = threads_getter()
    return None if get is None else get()


@contextlib.contextmanager
def one_thread():
    """Pin BLAS to one thread inside the block and restore the old count
    after it, also after an exception. Yields whether it could pin."""
    get, set_ = threads_getter(), threads_setter()
    if get is None or set_ is None:
        yield False
        return
    old = get()
    set_(1)
    try:
        yield True
    finally:
        set_(old)


def usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def on_cores(fn, items) -> list:
    """``[fn(i) for i in items]``, in item order. At one BLAS thread (every
    CLI stage) they are computed on min(len(items), usable cores) threads;
    otherwise, also where the count cannot be read, in order on the calling
    thread: concurrent GEMMs at several BLAS threads each only contend."""
    items = list(items)
    workers = min(len(items), usable_cores()) if threads() == 1 else 1
    if workers <= 1:
        return [fn(i) for i in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
