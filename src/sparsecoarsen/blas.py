"""One BLAS thread for a block of small dense work, through OpenBLAS's own calls.

Every solve, check and spectrum of the package (linearized._descend behind
both minimizers, analysis.global_verify, analysis.spectrum_at and
transform.condition_of_y) runs inside single_thread() and gives the caller's
count back, so its bits do not depend on the caller's thread count, whether
it is called from the CLI, a sweep worker or a library caller.  The problems
are small and dense: a second thread buys little and spins for the rest of
the run.  Sweeps run their points side by side instead (--jobs).  This
module finds the OpenBLAS that numpy loaded and its thread-count functions,
with ctypes and no dependency.  Where none is found, nothing is pinned.

It binds one LAPACK routine of that library too: find_dsyevd() is the
symmetric eigensolver that np.linalg.eigh calls, through its LAPACKE C
entry, so a caller can run it in place in buffers it keeps
(linearized.NormalSystem) and get eigh's bits.  Where the symbol is
absent, find_dsyevd() is None and np.linalg.eigh is the only path.
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


# LAPACKE_dsyevd_work of numpy's scipy-openblas wheel build: 64-bit lapack_int.
_DSYEVD = "scipy_LAPACKE_dsyevd_work64_"
_LAPACK_INT = ctypes.c_int64


@dataclass(frozen=True)
class OpenBlas:
    get_threads: object  # () -> int
    set_threads: object  # (int) -> None
    config: str | None  # get_config text, e.g. "OpenBLAS 0.3.31 ... MAX_THREADS=64"


def _library_paths():
    """OpenBLAS libraries mapped into this process, else numpy's vendored ones.

    A maps line's pathname is its sixth field, which may hold spaces.
    """
    try:
        with open("/proc/self/maps") as fh:
            return sorted({line.split(maxsplit=5)[5].rstrip("\n")
                           for line in fh if "openblas" in line})
    except OSError:
        root = os.path.dirname(np.__file__)
        return sorted(glob.glob(os.path.join(root + ".libs", "*openblas*"))
                      + glob.glob(os.path.join(root, ".dylibs", "*openblas*")))


def _libraries():
    """The OpenBLAS libraries of _library_paths that load, as ctypes handles."""
    for path in _library_paths():
        try:
            yield ctypes.CDLL(path)
        except OSError:
            continue


@functools.cache
def find_openblas():
    """numpy's OpenBLAS thread control, looked up once per process, or None.

    Each symbol set is tried in every library before the next set, so
    numpy's own names win over a plain OpenBLAS whose path sorts first.
    """
    libraries = list(_libraries())
    for get_name, set_name, config_name in _SYMBOLS:
        for lib in libraries:
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


@functools.cache
def find_dsyevd():
    """numpy's LAPACKE dsyevd_work, looked up once per process, or None.

    Called as f(layout, jobz, uplo, n, a, lda, w, work, lwork, iwork,
    liwork) with layout 102 (column-major), jobz and uplo as one-byte
    strings, the sizes as ints and the arrays as data addresses; it
    returns LAPACK's info.  lwork = liwork = -1 is the size query.
    """
    for lib in _libraries():
        if hasattr(lib, _DSYEVD):
            dsyevd = lib[_DSYEVD]
            dsyevd.argtypes = [
                ctypes.c_int, ctypes.c_char, ctypes.c_char, _LAPACK_INT,
                ctypes.c_void_p, _LAPACK_INT, ctypes.c_void_p,
                ctypes.c_void_p, _LAPACK_INT, ctypes.c_void_p, _LAPACK_INT,
            ]
            dsyevd.restype = _LAPACK_INT
            return dsyevd
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
