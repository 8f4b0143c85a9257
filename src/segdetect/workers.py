"""Per-image work on every CPU the process may run on.

numpy releases the GIL inside its GEMMs and large ufuncs, where the model's
time goes, so threads share one model and one address space and still run
in parallel (map_items). Training's small per-sample passes hand the GIL
back and forth too often for threads, so it forks worker processes instead
(forked_map). Restrict the CPUs (and so the worker count) with the
process's affinity mask, for example `taskset -c 0 segdetect run-all ...`.
"""

import contextlib
import os
import pickle
import signal
import threading


def cpu_count():
    """CPUs in the process's affinity mask (all CPUs where there is none)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_items(fn, items):
    """[fn(item) for item in items], on one thread per CPU (never more threads
    than items; the calling thread is one of them). Items start in input
    order and results come back in it. After a call raises, no further item
    starts; the ones running finish, and the error of the lowest-index failed
    item is raised. Every item below a failed one has started, so that is the
    error the serial loop would raise. Ctrl-C waits only for the running items."""
    items = list(items)
    results, errors = [None] * len(items), {}
    lock = threading.Lock()
    cursor = [0]                  # index of the next item to start

    def work():
        while True:
            with lock:
                i = cursor[0]
                if errors or i >= len(items):
                    return
                cursor[0] = i + 1
            try:
                results[i] = fn(items[i])
            except Exception as exc:  # noqa: BLE001 - raised below, on the calling thread
                with lock:
                    errors[i] = exc

    threads = [threading.Thread(target=work, daemon=True)
               for _ in range(min(cpu_count(), len(items)) - 1)]
    for t in threads:
        t.start()
    try:
        work()
    finally:
        with lock:
            cursor[0] = len(items)    # on Ctrl-C, start nothing more
        for t in threads:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results


@contextlib.contextmanager
def forked_map(fn, count):
    """Forks `count` worker processes, which inherit fn and all it reads, and
    yields run(items) -> [fn(item) for item in items] for at most count + 1
    items: the calling process computes items[0] while worker k computes
    items[k + 1], which travels to it and back pickled through a pipe.
    Results come back in input order. Every item finishes, then the error of
    the lowest-index failed item is raised. A worker that dies raises
    ChildProcessError, after which run is not to be called again. With count
    0 nothing forks and run computes in the calling process.

    On leaving the block, by any path, every pipe is closed and every worker
    waited for. Workers are forked with SIGINT blocked: Ctrl-C reaches only
    the calling process, whose exit closes the pipes, and each worker then
    ends through os._exit, never through the caller's cleanup. Fork only
    where no other thread holds a lock that fn needs."""
    pipes, pids = [], []      # per worker: (its items, its results), our ends
    try:
        for _ in range(count):
            (items_r, items_w), (results_r, results_w) = os.pipe(), os.pipe()
            pipes.append((open(items_w, "wb"), open(results_r, "rb")))
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:      # the worker: SIGINT stays blocked
                    try:
                        for ours in pipes:
                            for f in ours:
                                f.close()
                        _serve(fn, open(items_r, "rb"), open(results_w, "wb"))
                    finally:
                        os._exit(0)
                pids.append(pid)    # before Ctrl-C can arrive, so that it is waited for
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(items_r)
            os.close(results_w)

        def run(items):
            if len(items) > count + 1:
                raise ValueError(f"{len(items)} items for {count} workers and the caller")
            for (to, _), pid, item in zip(pipes, pids, items[1:]):
                _talk(pid, _send, to, item)
            replies = [_call(fn, items[0])] + [
                _talk(pid, pickle.load, back) for (_, back), pid, _ in zip(pipes, pids, items[1:])]
            for ok, value in replies:
                if not ok:
                    raise value
            return [value for _, value in replies]

        yield run
    finally:
        for ours in pipes:
            for f in ours:
                f.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _call(fn, item):
    """(True, fn(item)), or (False, the exception it raised)."""
    try:
        return True, fn(item)
    except Exception as exc:  # noqa: BLE001 - raised by run, on the calling process
        return False, exc


def _send(f, obj):
    pickle.dump(obj, f, pickle.HIGHEST_PROTOCOL)
    f.flush()


def _serve(fn, items, results):
    """A worker's loop: answers each item until the calling process closes the pipe."""
    while True:
        try:
            item = pickle.load(items)
        except EOFError:
            return
        _send(results, _call(fn, item))


def _talk(pid, op, *args):
    """op(*args) on a worker's pipe; ChildProcessError if the worker is gone."""
    try:
        return op(*args)
    except (EOFError, BrokenPipeError, pickle.UnpicklingError) as exc:
        raise ChildProcessError(f"worker process {pid} ended") from exc
