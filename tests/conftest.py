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
