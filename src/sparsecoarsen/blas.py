"""One BLAS thread for a block of small dense work, through OpenBLAS's own calls.

A sweep point is a small dense problem that gains nothing from BLAS threads,
so sweeps run their points side by side instead, each on one thread.  This
module finds the OpenBLAS that numpy loaded and its thread-count functions,
with ctypes and no dependency.  Where none is found, nothing is pinned.
"""

import ctypes
import functools
import glob
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# (get threads, set threads, get config): numpy's scipy-openblas wheel build,
# then a plain OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_",
     "scipy_openblas_get_config64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads",
     "openblas_get_config"),
)


@dataclass(frozen=True)
class OpenBlas:
    get_threads: object  # () -> int
    set_threads: object  # (int) -> None
    config: str | None  # get_config text, e.g. "OpenBLAS 0.3.31 ... MAX_THREADS=64"


def _library_paths():
    """OpenBLAS libraries mapped into this process, else numpy's vendored ones."""
    try:
        with open("/proc/self/maps") as fh:
            return sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        root = os.path.dirname(np.__file__)
        return sorted(glob.glob(os.path.join(root + ".libs", "*openblas*"))
                      + glob.glob(os.path.join(root, ".dylibs", "*openblas*")))


@functools.cache
def find_openblas():
    """numpy's OpenBLAS thread control, looked up once per process, or None."""
    for path in _library_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name, config_name in _SYMBOLS:
            if not (hasattr(lib, get_name) and hasattr(lib, set_name)):
                continue
            get_threads, set_threads = lib[get_name], lib[set_name]
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            config = None
            if hasattr(lib, config_name):
                get_config = lib[config_name]
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                raw = get_config()
                config = raw.decode() if raw else None
            return OpenBlas(get_threads, set_threads, config)
    return None


@contextmanager
def single_thread():
    """Run the block on one BLAS thread, then give back the caller's count.

    The count is per process, so blocks entered from several Python threads
    at once can restore each other's counts out of order.
    """
    blas = find_openblas()
    if blas is None:
        yield
        return
    before = blas.get_threads()
    blas.set_threads(1)
    try:
        yield
    finally:
        blas.set_threads(before)


def single_thread_config():
    """What single_thread() runs on: the library's config text and thread count.

    Both are None when no OpenBLAS thread control was found.
    """
    blas = find_openblas()
    if blas is None:
        return {"library": None, "threads_per_point": None}
    return {"library": blas.config, "threads_per_point": 1}
