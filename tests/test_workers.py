import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from segdetect import attacks, workers
from segdetect.synthdata import SegSample


@pytest.fixture()
def cpus(monkeypatch):
    """Sets the CPU count map_items sees."""
    return lambda n: monkeypatch.setattr(workers, "cpu_count", lambda: n)


class TestMapItems:
    def test_results_in_input_order(self, cpus):
        # later items finish first, so completion order is the reverse
        cpus(4)
        done = []

        def fn(i):
            time.sleep(0.05 * (3 - i))
            done.append(i)
            return i * i

        assert workers.map_items(fn, range(4)) == [0, 1, 4, 9]
        assert done == [3, 2, 1, 0]

    def test_one_thread_per_cpu_at_most_one_per_item(self, cpus):
        cpus(8)
        barrier = threading.Barrier(3, timeout=10)   # passes only if 3 calls run at once
        threads = set()

        def fn(i):
            threads.add(threading.get_ident())
            barrier.wait()
            return i

        assert workers.map_items(fn, range(3)) == [0, 1, 2]
        assert threading.get_ident() in threads and len(threads) == 3

    def test_stress_each_item_once(self, cpus):
        # more threads than cores and a short switch interval: a lost update
        # of the shared cursor would run an item twice or skip one
        cpus(16)
        counts = [0] * 3000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def fn(i):
                counts[i] += 1
                return -i
            assert workers.map_items(fn, range(3000)) == [-i for i in range(3000)]
        finally:
            sys.setswitchinterval(interval)
        assert counts == [1] * 3000

    def test_one_cpu_runs_on_calling_thread(self, cpus):
        cpus(1)
        threads = set()
        assert workers.map_items(lambda i: threads.add(threading.get_ident()) or i,
                                 range(5)) == list(range(5))
        assert threads == {threading.get_ident()}

    def test_cpu_count_is_affinity_mask(self):
        assert workers.cpu_count() == len(os.sched_getaffinity(0))

    def test_lowest_index_error_raised(self, cpus):
        # item 3 fails first; item 1 was already running and fails later
        cpus(2)
        ran = []

        def fn(i):
            ran.append(i)
            if i == 1:
                time.sleep(0.3)
                raise ValueError("item 1")
            if i == 3:
                raise ValueError("item 3")
            return i

        with pytest.raises(ValueError, match="item 1"):
            workers.map_items(fn, range(10))
        assert sorted(ran) == [0, 1, 2, 3]

    def test_error_cancels_items_not_started(self, cpus):
        cpus(2)
        ran = []

        def fn(i):
            ran.append(i)
            if i == 0:
                raise ValueError("item 0")
            time.sleep(0.1)
            return i

        with pytest.raises(ValueError, match="item 0"):
            workers.map_items(fn, range(20))
        assert 0 in ran and set(ran) <= {0, 1}   # item 1 runs if it started first

    def test_interrupt_waits_only_for_running_items(self, cpus):
        cpus(2)
        ran = []

        def fn(i):
            ran.append(i)
            if threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt
            time.sleep(0.1)
            return i

        with pytest.raises(KeyboardInterrupt):
            workers.map_items(fn, range(20))
        assert len(ran) <= 2


def square_and_pid(i):
    if i < 0:
        raise ValueError(f"item {i}")
    return i * i, os.getpid()


class TestForkedMap:
    def test_results_in_input_order_one_process_each(self, reaped):
        with workers.forked_map(square_and_pid, 2) as run:
            out = run([1, 2, 3])
            assert [v for v, _ in out] == [1, 4, 9]
            pids = [p for _, p in out]
            assert pids[0] == os.getpid() and len(set(pids)) == 3
            assert run([4, 5, 6]) == [(16, pids[0]), (25, pids[1]), (36, pids[2])]
            assert run([7]) == [(49, pids[0])]     # fewer items than workers

    def test_count_zero_forks_nothing(self, reaped, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        with workers.forked_map(square_and_pid, 0) as run:
            assert run([3]) == [(9, os.getpid())]
            with pytest.raises(ValueError, match="2 items for 0 workers"):
                run([1, 2])

    @pytest.mark.parametrize("items,message", [([1, -2, -3], "item -2"), ([-1, -2, 3], "item -1"),
                                               ([1, 2, -3], "item -3")])
    def test_lowest_index_error_raised(self, reaped, items, message):
        with workers.forked_map(square_and_pid, 2) as run:
            with pytest.raises(ValueError, match=message):
                run(items)
            assert [v for v, _ in run([1, 2, 3])] == [1, 4, 9]   # no stale reply is left

    def test_killed_worker_raises(self, reaped):
        def fn(i):
            if i == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        with workers.forked_map(fn, 2) as run:
            with pytest.raises(ChildProcessError, match="ended"):
                run([0, 1, 2])

    def test_workers_ignore_sigint_and_end_with_the_caller(self, reaped):
        def fn(i):
            if i < 0:
                raise KeyboardInterrupt
            return os.getpid()

        with pytest.raises(KeyboardInterrupt):
            with workers.forked_map(fn, 2) as run:
                pids = run([0, 1, 2])
                for pid in pids[1:]:
                    os.kill(pid, signal.SIGINT)
                assert run([0, 1, 2]) == pids
                run([-1, 1, 2])     # Ctrl-C on the calling process


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
