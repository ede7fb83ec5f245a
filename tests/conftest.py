"""Session-wide test setup: numpy's BLAS runs on one thread, as the CLI runs it.

At the reference dimensions the bits of a matrix product depend on how many
threads split it, and any in-process ``cli.main`` call pins the count to one.
Pinning it before the first test means every test computes the same bits
whether it runs alone or after a CLI test.
"""

from spantriplet.autodiff import set_blas_threads


def pytest_configure(config):
    set_blas_threads(1)
