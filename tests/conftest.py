# Tier-1 runs with the CLI's BLAS thread counts: the import sets them before numpy loads.
import segdetect.cli  # noqa: F401, I001 - before numpy

import os
import signal

import numpy as np
import pytest

from segdetect import model, synthdata, workers


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


@pytest.fixture()
def shared_log(tmp_path):
    """(append, read) of a log that every process can write: append(*words)
    adds one line in one write to a file opened for appending, and read()
    returns the lines so far, each as its list of words."""
    path = tmp_path / "shared.log"

    def append(*words):
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, (" ".join(map(str, words)) + "\n").encode())
        finally:
            os.close(fd)

    def read():
        return [line.split() for line in path.read_text().splitlines()] if path.exists() else []

    return append, read


@pytest.fixture()
def forks(monkeypatch, reaped):
    """forks(n) sets the CPU count workers.cpu_count returns to n and returns
    the list of pids forked from now on. No child may be left after the test."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    def set_cpus(n):
        monkeypatch.setattr(workers, "cpu_count", lambda: n)
        return pids

    monkeypatch.setattr(os, "fork", fork)
    return set_cpus
