"""Per-item work on every CPU the process may run on.

A model pass at the default 64 px spends about half its time outside the
GEMMs, holding the GIL, so threads gain little; the calling process forks
worker processes instead (forked_map), which inherit the model, the data and
the function, and only indices, arguments and results travel; forked_map
alone reads the CPU count. The package starts no thread, so a fork never
copies a lock that another thread holds. Restrict the CPUs (and so the worker
count) with the process's affinity mask, for example
`taskset -c 0 segdetect run-all ...`.
"""

import contextlib
import mmap
import os
import pickle
import signal


def cpu_count():
    """CPUs in the process's affinity mask (all CPUs where there is none)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_items(fn, items):
    """[fn(item) for item in items] on forked_map's processes, forked for this
    call: they inherit the items, and only indices and results travel."""
    items = list(items)
    with forked_map(lambda _, i: fn(items[i]), len(items)) as run:
        return run(None, range(len(items)))


@contextlib.contextmanager
def forked_map(fn, most):
    """Forks count = max(min(cpu_count(), most) - 1, 0) worker processes,
    where `most` is the most items any call in the block carries; they inherit
    fn and all it reads. Yields run(arg, items) -> [fn(arg, item) for item in
    items]. The calling process computes items[0::count + 1] and worker k
    items[k::count + 1], each in item order; arg and the items travel to
    the workers pickled through pipes, and the results back, to come out in
    input order: a sum over them (Python's `sum`, from 0 left to right) does
    not depend on the CPU count.

    A share stops at its first failed item and records its index in its word
    of a map all processes share; no process starts an item above a recorded
    one. So every item below the lowest-index failure runs, and its error is
    raised, as in the serial loop. A worker that dies raises
    ChildProcessError, after which run is not to be called again.

    On leaving the block, by any path, no process starts another item, every
    pipe is closed and every worker waited for: Ctrl-C waits only for the
    running items. Workers are forked with SIGINT blocked and end through
    os._exit, never through the caller's cleanup. Fork only where no other
    thread holds a lock that fn needs."""
    count = max(min(cpu_count(), most) - 1, 0)
    failed = memoryview(mmap.mmap(-1, 8 * (count + 1))).cast("q")   # one word per share
    pipes, pids = [], []      # per worker: (its items, its results), our ends
    try:
        for k in range(1, count + 1):
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
                        _serve(fn, k, failed, open(items_r, "rb"), open(results_w, "wb"))
                    finally:
                        os._exit(0)
                pids.append(pid)    # before Ctrl-C can arrive, so that it is waited for
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(items_r)
            os.close(results_w)

        def run(arg, items):
            items = list(items)
            for k in range(len(failed)):
                failed[k] = len(items)      # no failure yet
            busy = [(pipe, pid) for pipe, pid, _ in zip(pipes, pids, items[1:])]
            for (to, _), pid in busy:
                _talk(pid, _send, to, (arg, items))
            shares = [_share(fn, arg, items, 0, failed)] + [
                _talk(pid, pickle.load, back) for (_, back), pid in busy]
            errors = [(k + len(done) * len(failed), exc)
                      for k, (done, exc) in enumerate(shares) if exc is not None]
            if errors:
                raise min(errors, key=lambda e: e[0])[1]
            return [shares[i % len(failed)][0][i // len(failed)] for i in range(len(items))]

        yield run
    finally:
        failed[0] = -1
        for ours in pipes:
            for f in ours:
                f.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _share(fn, arg, items, k, failed):
    """(results of items[k::len(failed)], None) in item order, up to an item
    above a failure recorded in `failed`; at this share's first failed item,
    (the results before it, its exception), and its index recorded."""
    done = []
    for i in range(k, len(items), len(failed)):
        if min(failed) < i:
            break
        try:
            done.append(fn(arg, items[i]))
        except Exception as exc:  # noqa: BLE001 - raised by run, on the calling process
            failed[k] = i
            return done, exc
    return done, None


def _send(f, obj):
    pickle.dump(obj, f, pickle.HIGHEST_PROTOCOL)
    f.flush()


def _serve(fn, k, failed, todo, results):
    """Worker k's loop: computes its share of each call until the calling
    process closes the pipe."""
    while True:
        try:
            arg, items = pickle.load(todo)
        except EOFError:
            return
        _send(results, _share(fn, arg, items, k, failed))


def _talk(pid, op, *args):
    """op(*args) on a worker's pipe; ChildProcessError if the worker is gone."""
    try:
        return op(*args)
    except (EOFError, BrokenPipeError, pickle.UnpicklingError) as exc:
        raise ChildProcessError(f"worker process {pid} ended") from exc
