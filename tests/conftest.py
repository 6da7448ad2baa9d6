import contextlib

import pytest

from sparsecoarsen import blas


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    # Every test solves small dense problems, where extra BLAS threads only
    # spin; on a machine with busy cores they slow the session many times
    # over.  Tests that need a caller thread count set their own and restore
    # this one.
    with blas.single_thread():
        yield


@contextlib.contextmanager
def _at_blas_threads(threads):
    control = blas.find_openblas()
    if control is None:
        yield
        return
    before = control.get_threads()
    control.set_threads(threads)
    try:
        yield
    finally:
        control.set_threads(before)


@pytest.fixture
def caller_blas_threads():
    """caller_blas_threads(n) runs its block at this OpenBLAS thread count, where it can be set."""
    return _at_blas_threads


@pytest.fixture
def openblas():
    """numpy's OpenBLAS thread control, at 2 threads for the test's duration."""
    control = blas.find_openblas()
    if control is None:
        pytest.skip("no OpenBLAS thread control in this process")
    before = control.get_threads()
    control.set_threads(2)  # a caller count the pin must override and restore
    try:
        yield control
    finally:
        control.set_threads(before)
