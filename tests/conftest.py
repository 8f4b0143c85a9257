# Tier-1 runs with the CLI's BLAS thread counts: the import sets them before numpy loads.
import segdetect.cli  # noqa: F401, I001 - before numpy

import os
import signal

import numpy as np
import pytest

from segdetect import model, synthdata


@pytest.fixture(scope="session")
def small_dataset():
    cfg = synthdata.DatasetConfig(train_size=40, val_size=50, seed=7)
    train = synthdata.generate_samples(cfg, "train")
    val = synthdata.generate_samples(cfg, "val")
    return cfg, train, val


@pytest.fixture(scope="session")
def small_model(small_dataset):
    """Quickly trained toy model shared by attack/feature tests."""
    _, train, _ = small_dataset
    return model.train([(s.image, s.labels) for s in train],
                       model.TrainConfig(epochs=10, seed=7))


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def reaped():
    """Fails a test that leaves a child process behind or is still waiting
    after 60 s."""
    def overdue(signum, frame):
        pytest.fail("still waiting after 60 s")    # a BaseException: no handler catches it

    handler = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    with pytest.raises(ChildProcessError):     # ECHILD: no child, running or exited
        os.waitpid(-1, os.WNOHANG)
