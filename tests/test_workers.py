import collections
import os
import signal
import time

import numpy as np
import pytest

from segdetect import attacks, workers
from segdetect.synthdata import SegSample


@pytest.fixture()
def cpus(monkeypatch):
    """Sets the CPU count forked_map sees."""
    return lambda n: monkeypatch.setattr(workers, "cpu_count", lambda: n)


def wait_for(read, lines):
    """Waits up to 10 s until the shared log holds `lines` lines."""
    deadline = time.monotonic() + 10
    while len(read()) < lines:
        assert time.monotonic() < deadline, read()
        time.sleep(0.01)


class TestMapItems:
    def test_results_in_input_order(self, cpus, reaped, shared_log):
        # later items finish first, so completion order is the reverse
        cpus(4)
        append, read = shared_log

        def fn(i):
            time.sleep(0.05 * (3 - i))
            append(i)
            return i * i

        assert workers.map_items(fn, range(4)) == [0, 1, 4, 9]
        assert read() == [["3"], ["2"], ["1"], ["0"]]

    def test_one_process_per_cpu_at_most_one_per_item(self, forks, shared_log):
        forked = forks(8)
        append, read = shared_log

        def fn(i):
            append(i)
            wait_for(read, 3)       # passes only if 3 calls run at once
            return os.getpid()

        pids = workers.map_items(fn, range(3))
        assert pids[0] == os.getpid() and len(set(pids)) == 3
        assert sorted(pids[1:]) == sorted(forked)

    def test_stress_each_item_once(self, cpus, reaped, shared_log):
        # more processes than cores, each logging every item it starts: an
        # item run twice or skipped shows in the log
        cpus(16)
        append, read = shared_log
        assert workers.map_items(lambda i: append(i) or -i, range(3000)) == [
            -i for i in range(3000)]
        assert sorted(int(i) for i, in read()) == list(range(3000))

    def test_one_cpu_runs_in_calling_process(self, cpus, monkeypatch):
        cpus(1)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert workers.map_items(lambda i: (i, os.getpid()), range(5)) == [
            (i, os.getpid()) for i in range(5)]

    def test_cpu_count_is_affinity_mask(self):
        assert workers.cpu_count() == len(os.sched_getaffinity(0))

    def test_lowest_index_error_raised(self, cpus, reaped, shared_log):
        # the caller's share is 0, 2, 4, ..., the worker's 1, 3, 5, ...: item 2
        # fails first; item 1 was already running and fails later
        cpus(2)
        append, read = shared_log

        def fn(i):
            append(i)
            if i == 1:
                time.sleep(0.3)
                raise ValueError("item 1")
            if i == 2:
                raise ValueError("item 2")
            return i

        with pytest.raises(ValueError, match="item 1"):
            workers.map_items(fn, range(10))
        assert sorted(int(i) for i, in read()) == [0, 1, 2]

    def test_error_cancels_items_not_started(self, cpus, reaped, shared_log):
        cpus(2)
        append, read = shared_log

        def fn(i):
            append(i)
            if i == 0:
                raise ValueError("item 0")
            time.sleep(0.1)
            return i

        with pytest.raises(ValueError, match="item 0"):
            workers.map_items(fn, range(20))
        ran = {int(i) for i, in read()}
        assert 0 in ran and ran <= {0, 1}   # item 1 runs if it started first

    def test_interrupt_waits_only_for_running_items(self, cpus, reaped, shared_log):
        cpus(2)
        append, read = shared_log
        caller = os.getpid()

        def fn(i):
            append(i)
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(0.1)
            return i

        with pytest.raises(KeyboardInterrupt):
            workers.map_items(fn, range(20))
        assert len(read()) <= 2


def square_and_pid(arg, i):
    if i < 0:
        raise ValueError(f"item {i}")
    return arg + i * i, os.getpid()


class TestForkedMap:
    def test_results_in_input_order_one_process_each(self, forks):
        forked = forks(3)
        with workers.forked_map(square_and_pid, 7) as run:
            out = run(0, [1, 2, 3])
            assert [v for v, _ in out] == [1, 4, 9]
            pids = [p for _, p in out]
            assert pids[0] == os.getpid() and sorted(pids[1:]) == sorted(forked)
            assert len(set(pids)) == 3
            assert run(10, [4, 5, 6]) == [(26, pids[0]), (35, pids[1]), (46, pids[2])]
            assert run(0, [7]) == [(49, pids[0])]     # fewer items than processes
            # more items than processes: item i is share i % 3's
            assert run(100, range(7)) == [(100 + i * i, pids[i % 3]) for i in range(7)]

    def test_count_zero_forks_nothing(self, reaped, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        with workers.forked_map(square_and_pid, 0) as run:
            assert run(0, [3]) == [(9, os.getpid())]
            assert run(1, [1, 2]) == [(2, os.getpid()), (5, os.getpid())]
            assert run(0, []) == []

    @pytest.mark.parametrize("cpus,most,count", [(4, 0, 0), (4, 1, 0), (4, 2, 1), (1, 5, 0),
                                                 (2, 5, 1), (3, 9, 2), (3, 3, 2)])
    def test_forks_one_worker_per_cpu_short_of_most(self, forks, cpus, most, count):
        forked = forks(cpus)
        with workers.forked_map(square_and_pid, most) as run:
            assert len(forked) == count
            out = run(0, range(5))
        assert [v for v, _ in out] == [i * i for i in range(5)]
        assert {p for _, p in out} == {os.getpid(), *forked}

    @pytest.mark.parametrize("items,message", [([1, -2, -3], "item -2"), ([-1, -2, 3], "item -1"),
                                               ([1, 2, -3], "item -3")])
    def test_lowest_index_error_raised(self, forks, items, message):
        forked = forks(3)
        with workers.forked_map(square_and_pid, 3) as run:
            assert len(forked) == 2
            with pytest.raises(ValueError, match=message):
                run(0, items)
            assert [v for v, _ in run(0, [1, 2, 3])] == [1, 4, 9]   # no stale reply is left

    def test_killed_worker_raises(self, forks):
        def fn(_, i):
            if i == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        forked = forks(3)
        with workers.forked_map(fn, 3) as run:
            assert len(forked) == 2
            with pytest.raises(ChildProcessError, match="ended"):
                run(None, [0, 1, 2])

    def test_workers_ignore_sigint_and_end_with_the_caller(self, forks):
        def fn(_, i):
            if i < 0:
                raise KeyboardInterrupt
            return os.getpid()

        forked = forks(3)
        with pytest.raises(KeyboardInterrupt):
            with workers.forked_map(fn, 3) as run:
                pids = run(None, [0, 1, 2])
                assert sorted(pids[1:]) == sorted(forked)
                for pid in pids[1:]:
                    os.kill(pid, signal.SIGINT)
                assert run(None, [0, 1, 2]) == pids
                run(None, [-1, 1, 2])     # Ctrl-C on the calling process


# Float32 sums whose value depends on their order: ((1 + 1e8) - 1e8) is 0,
# ((-1e8 + 1e8) + 1) is 1.
ORDERED = [1.0, 1e8, -1e8]


def capture_first_gradient(monkeypatch):
    """Makes _sign_descent record grad_fn(x0) instead of descending."""
    grads = []

    def first_only(grad_fn, x0, step, project, n_iter):
        grads.append(grad_fn(x0))
        return x0

    monkeypatch.setattr(attacks, "_sign_descent", first_only)
    return grads


class TestMeanGradientOrder:
    """Universal attacks average per-image gradients computed on the workers;
    the sum runs in sample order, whatever order the workers finish in."""

    def test_ssmm_sums_in_sample_order(self, cpus, monkeypatch):
        cpus(8)
        samples = [SegSample(image=np.full((4, 4, 3), 10.0 * k, np.float32),
                             labels=np.zeros((4, 4), np.int32), id=str(k)) for k in range(3)]

        def fake(model, x, objective):
            k = int(x[0, 0, 0]) // 10
            time.sleep(0.1 * (2 - k))      # the last sample finishes first
            return None, 0.0, np.full(x.shape, ORDERED[k], np.float32)

        monkeypatch.setattr(attacks, "predict_and_grad", fake)
        grads = capture_first_gradient(monkeypatch)
        attacks.ssmm_train(None, samples, np.zeros((4, 4), np.int32), attacks.SsmmConfig())
        expect = np.float32(0.0)
        for v in ORDERED:
            expect += np.float32(v)
        assert np.all(grads[0] == expect / 3) and expect == 0

    def test_patch_sums_in_placement_order(self, cpus, monkeypatch):
        cpus(8)
        cfg = attacks.PatchConfig(height=2, width=2, placements=3, seed=3)
        samples = [SegSample(image=np.zeros((8, 8, 3), np.float32),
                             labels=np.zeros((8, 8), np.int32), id=str(k)) for k in range(2)]
        # the placements, drawn in the serial loop's rng order
        rng = np.random.default_rng(cfg.seed)
        windows = [(int(rng.integers(2)), int(rng.integers(0, 7)), int(rng.integers(0, 7)))[1:]
                   for _ in range(cfg.placements)]
        assert len(set(windows)) == 3

        def fake(model, x, target, weights):
            top, left = (int(v) for v in np.argwhere(x[:, :, 0] == 127.5)[0])
            i = windows.index((top, left))
            time.sleep(0.1 * (2 - i))      # the last placement finishes first
            return 0.0, np.full(x.shape, ORDERED[i], np.float32)

        monkeypatch.setattr(attacks, "loss_input_grad", fake)
        grads = capture_first_gradient(monkeypatch)
        attacks.patch_attack(None, samples, cfg)
        expect = np.float32(0.0)
        for v in ORDERED:
            expect += np.float32(v)
        assert np.all(grads[0] == expect / 3) and expect == 0


def logged_fake_grads(monkeypatch, append):
    """Replaces the attacks' model passes by zero gradients, each call logged
    with the pid of the process that ran it."""
    def predict_and_grad(model, x, objective):
        append(os.getpid())
        return None, 0.0, np.zeros(x.shape, np.float32)

    def loss_input_grad(model, x, target, weights):
        append(os.getpid())
        return 0.0, np.zeros(x.shape, np.float32)

    monkeypatch.setattr(attacks, "predict_and_grad", predict_and_grad)
    monkeypatch.setattr(attacks, "loss_input_grad", loss_input_grad)


def universal(kind, items):
    """Runs a 3-iteration ssmm or patch descent over `items` samples or placements."""
    samples = [SegSample(image=np.zeros((8, 8, 3), np.float32),
                         labels=np.zeros((8, 8), np.int32), id=str(k)) for k in range(items)]
    if kind == "ssmm":
        attacks.ssmm_train(None, samples, np.zeros((8, 8), np.int32), attacks.SsmmConfig(n_iter=3))
    else:
        attacks.patch_attack(None, samples[:1], attacks.PatchConfig(
            height=2, width=2, n_iter=3, placements=items))


class TestUniversalAttackWorkers:
    """ssmm and patch fork once per descent, one worker per CPU short of the
    samples or placements."""

    @pytest.mark.parametrize("kind", ["ssmm", "patch"])
    def test_one_item_forks_nothing(self, forks, monkeypatch, shared_log, kind):
        forked = forks(4)
        append, read = shared_log
        logged_fake_grads(monkeypatch, append)
        universal(kind, 1)
        assert forked == [] and read() == [[str(os.getpid())]] * 3

    @pytest.mark.parametrize("kind", ["ssmm", "patch"])
    def test_three_items_on_two_cpus_fork_one_worker_per_descent(self, forks, monkeypatch,
                                                                 shared_log, kind):
        forked = forks(2)
        append, read = shared_log
        logged_fake_grads(monkeypatch, append)
        universal(kind, 3)
        assert len(forked) == 1
        calls = collections.Counter(pid for pid, in read())
        assert calls == {str(os.getpid()): 6, str(forked[0]): 3}   # items 0, 2 and 1, 3 times
