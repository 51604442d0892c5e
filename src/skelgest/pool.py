"""The worker pool: `fork_map` runs a function over item indices in forked
processes, which inherit its state and send back only the results.

Cross-validation, training and model-set scoring (`pipeline`) fit and score
their models in it, and `ingest.write_dataset` writes a cohort's frames
files in it.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import selectors
import signal
from typing import Callable, NoReturn, TypeVar

from .neuralnet.common import one_blas_thread


class WorkerLostError(RuntimeError):
    """A forked worker ended before sending back an item's result."""


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask, which
    ``taskset`` sets."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


S = TypeVar("S")
R = TypeVar("R")

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's `mallopt` parameters


def _keep_freed_memory() -> None:
    """Make glibc's malloc keep freed memory in this process: no trimming of
    the heap and no mmap below 32 MB.  A worker lives for one `fork_map`
    call, and would otherwise fault the same pages in again for every item.
    Without glibc nothing changes."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param in (_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD):
        mallopt(param, 32 << 20)


def _work(fn: Callable, state: object, tasks: int, replies: int) -> NoReturn:
    """A forked worker's life: for each item index read from ``tasks``, the
    item's result, or the error it raised, pickled to ``replies`` as one
    length-prefixed frame.  It ends after an error, or when ``tasks`` is
    closed."""
    try:
        # Ctrl-C reaches the whole process group.  A worker then ends at
        # once instead of finishing its item.
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        _keep_freed_memory()
        with open(replies, "wb") as out:
            while len(task := os.read(tasks, 4)) == 4:
                try:
                    ok, value = True, fn(state, int.from_bytes(task, "little"))
                except Exception as exc:
                    ok, value = False, exc
                try:
                    frame = pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL)
                except Exception as exc:  # a result or an error that does not pickle
                    ok, frame = False, pickle.dumps((False, RuntimeError(repr(exc))))
                out.write(len(frame).to_bytes(8, "little") + frame)
                out.flush()
                if not ok:
                    break
    finally:
        os._exit(0)


def fork_map(
    fn: Callable[[S, int], R], n: int, state: S, workers: int,
    *, lost: Callable[[int], str],
) -> list[R]:
    """``[fn(state, i) for i in range(n)]``, computed by ``workers`` forked
    processes; at one worker, or where the platform cannot fork, by that loop
    in this process.

    Each worker inherits ``fn`` and ``state`` through fork, so neither is
    copied or pickled.  It receives one item index at a time, as it becomes
    free, and sends back only ``fn``'s result.  Results are taken in item
    order, so a failure raises the first failing item's error, as the loop
    does.  A worker that dies (killed from outside, say) is a
    :class:`WorkerLostError`: ``lost(i)`` describes the first item ``i``
    whose result was not received.  Every item runs at one BLAS thread, set
    once per call; the workers run with Ctrl-C at its default action, and
    are joined before this returns or raises.
    """
    if workers == 1 or not hasattr(os, "fork"):
        with one_blas_thread():
            return [fn(state, i) for i in range(n)]
    items = iter(range(n))
    tasks: dict[int, int] = {}  # by a worker's reply pipe: its task pipe
    pids: dict[int, int] = {}  # by a worker's reply pipe: its process id
    holds: dict[int, int] = {}  # by a worker's reply pipe: the item it computes
    replies: dict[int, tuple[bool, object]] = {}  # by item, until its turn
    dropped: set[int] = set()  # items whose worker died before replying
    results: list[R] = []

    def hand_out(fd: int) -> None:
        """Send the worker behind reply pipe ``fd`` its next item, or end it."""
        item = next(items, None)
        if item is None:
            os.close(tasks.pop(fd))
            return
        holds[fd] = item
        try:
            os.write(tasks[fd], item.to_bytes(4, "little"))
        except BrokenPipeError:  # the worker is gone; its reply pipe tells
            pass

    with one_blas_thread(), selectors.DefaultSelector() as ready:
        try:
            for _ in range(workers):
                task_r, task_w = os.pipe()
                reply_r, reply_w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    for fd in (*tasks.values(), *pids, task_w, reply_r):
                        os.close(fd)
                    _work(fn, state, task_r, reply_w)
                os.close(task_r)
                os.close(reply_w)
                tasks[reply_r], pids[reply_r] = task_w, pid
                ready.register(reply_r, selectors.EVENT_READ, bytearray())
                hand_out(reply_r)
            while len(results) < n:
                i = len(results)
                if i in replies:
                    ok, value = replies.pop(i)
                    if not ok:
                        raise value
                    results.append(value)
                    continue
                if i in dropped or not ready.get_map():
                    raise WorkerLostError(f"{lost(i)} ({n - i} of {n} not received)")
                for key, _ in ready.select():
                    fd, buffer = key.fd, key.data
                    chunk = os.read(fd, 1 << 16)
                    if not chunk:
                        ready.unregister(fd)
                        if fd in holds:
                            dropped.add(holds.pop(fd))
                        continue
                    buffer += chunk
                    while len(buffer) >= 8 and len(buffer) >= 8 + (
                        size := int.from_bytes(buffer[:8], "little")
                    ):
                        reply = pickle.loads(buffer[8 : 8 + size])
                        del buffer[: 8 + size]
                        replies[holds.pop(fd)] = reply
                        if reply[0]:
                            hand_out(fd)
        finally:
            for fd, pid in pids.items():
                os.close(fd)
                if fd in tasks:
                    os.close(tasks[fd])
                if len(results) < n:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results
