import signal
import tracemalloc

import numpy as np
import pytest

from gausset import LabeledDataset, PriorHyper, accumulate, posterior


@pytest.fixture
def deadline():
    """Fail, rather than hang, a test whose calls take over 20 s."""
    def expire(signum, frame):
        # Not an Exception, so no handler under test can swallow it.
        pytest.fail("call did not return within 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def worked_dataset():
    """1-D dataset: class 'a' holds {1, 3}, class 'b' holds {2}."""
    return LabeledDataset(np.array([[1.0], [3.0], [2.0]]),
                          np.array([0, 0, 1]), ("a", "b"))


@pytest.fixture
def worked_stats(worked_dataset):
    return accumulate(worked_dataset)


@pytest.fixture
def worked_posterior(worked_stats):
    """Posterior at r = 1 under the non-informative prior.

    Hand values: M* = [4/3, 1], diag R* = (3, 2), a* = 3,
    B* = 14 - 16/3 - 4/2 = 20/3.
    """
    return posterior(worked_stats, PriorHyper.noninformative(1.0))


def offset_dataset(offset):
    """400 rows, N = 3, K = 4, unit within-class noise, a common offset."""
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, 400)
    means = rng.normal(0, 3, (4, 3))
    x = means[labels] + rng.normal(size=(400, 3)) + offset
    return LabeledDataset(x, labels, ("a", "b", "c", "d"))


def separated_dataset(seed):
    """N = 2, K = 3, 5 rows per class: class means drawn from
    Normal(0, (1e4)^2), noise 1e-6, so the means lie 1e10 noise widths apart."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(3), 5)
    means = rng.normal(0.0, 1e4, size=(3, 2))
    x = means[labels] + 1e-6 * rng.normal(size=(15, 2))
    return LabeledDataset(x, labels, ("a", "b", "c"))


def random_spd(rng, n, jitter=1e-3):
    g = rng.normal(size=(n, n))
    return g @ g.T + jitter * np.eye(n)


def traced_peak(call):
    """Peak bytes allocated while ``call()`` runs, numpy buffers included
    (numpy reports them to tracemalloc), and its return value."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        value = call()
        return tracemalloc.get_traced_memory()[1] - base, value
    finally:
        if not was_tracing:
            tracemalloc.stop()
