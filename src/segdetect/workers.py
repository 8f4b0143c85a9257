"""Per-image work on every CPU the process may run on.

numpy releases the GIL inside its GEMMs and large ufuncs, where the model's
time goes, so threads share one model and one address space and still run
in parallel. Restrict the CPUs (and so the thread count) with the process's
affinity mask, for example `taskset -c 0 segdetect run-all ...`.
"""

import os
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
