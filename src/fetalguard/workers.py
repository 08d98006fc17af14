"""Independent calls on every available core: fork_map."""

from __future__ import annotations

import ctypes
import os
from collections.abc import Iterator

from .errors import FetalGuardError


def fork_map(function, items: list, what: str) -> Iterator:
    """Yield function(item) for each item, in item order, from one forked worker per available core.

    Worker w of n calls function on items[w::n] in turn and sends one message
    per item, stopping at its first exception. The messages are read in item
    order as the caller asks for them, and a worker whose pipe is full waits,
    so unread results do not pile up here. An exception is re-raised, with
    its type, message and attributes, when its item's turn comes: the
    lowest-indexed one, as a loop would raise it.
    A worker that dies is a one-line FetalGuardError naming what it was
    doing. On an error, an interrupt, or a caller that stops early and closes
    the iterator, every worker is terminated; every worker is joined before
    the last result is yielded or the error is raised.

    Workers are forked, not spawned: they need no fresh import, and function
    and items reach them without pickling, so a closure will do; only results
    and exceptions are pickled. OpenBLAS ends its threads before a fork and
    starts them again at its next call, so workers may call BLAS; each takes
    its share of this process's BLAS threads (_share_blas_threads). One core,
    one item, or no fork makes the calls in this process, as the caller takes
    the results.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_workers = min(cores, len(items))
    if n_workers < 2 or not hasattr(os, "fork"):
        yield from map(function, items)
        return
    # imported here: the bedside score makes no parallel call, and these would cost each call 13 ms and 1.2 MB
    import multiprocessing

    context = multiprocessing.get_context("fork")
    workers, receivers = [], []
    try:
        for first in range(n_workers):
            receiver, sender = context.Pipe(duplex=False)
            receivers.append(receiver)
            worker = context.Process(target=_work, args=(sender, function, items, first, n_workers))
            worker.start()
            workers.append(worker)
            sender.close()  # so that the worker's exit ends the pipe, and later workers do not inherit it
        for index in range(len(items)):
            worker, receiver = workers[index % n_workers], receivers[index % n_workers]
            try:
                ok, result = receiver.recv()
            except EOFError:
                worker.join()
                left = len(range(index, len(items), n_workers))
                raise FetalGuardError(
                    f"a {what} worker exited with code {worker.exitcode} before sending {left} of its results"
                ) from None
            if not ok:
                raise result
            if index == len(items) - 1:
                break  # yielded after the joins, so a caller that takes every result leaves no worker running
            yield result
    except BaseException:
        for worker in workers:
            worker.terminate()
        raise
    finally:
        for worker in workers:
            worker.join()
        for receiver in receivers:
            receiver.close()
    yield result


def _work(sender, function, items: list, first: int, step: int) -> None:
    """Worker: send (True, function(item)) for items[first::step], or (False, exception) and stop."""
    _share_blas_threads(step)
    for index in range(first, len(items), step):
        try:
            message = (True, function(items[index]))
        except Exception as exc:  # re-raised by the parent when it reads this item
            message = (False, exc)
        sender.send(message)
        if not message[0]:
            return


def _share_blas_threads(n_workers: int) -> None:
    """Cut this worker's OpenBLAS threads to its share of the parent's: threads // n_workers, at least 1.

    A forked worker inherits the parent's count, which OpenBLAS sets to the
    cores by default, and n workers of that many threads spin-wait on each
    other's cores: a 2-leg run_synth on 2 cores took 5-28 s instead of the
    serial 2.7-3.8 s. Outputs do not depend on the BLAS thread count. A BLAS
    that is not OpenBLAS, or a system without /proc/self/maps, keeps its count.
    """
    blas = openblas_threads()
    if blas is not None:
        get, set_ = blas
        set_(max(1, get() // n_workers))


def openblas_threads():
    """(get, set) of the thread count of the OpenBLAS this process has loaded, or None if it has none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.rpartition("/")[2]}
        paths = {path for path in paths if path.startswith("/")}
    except OSError:
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)  # already loaded: this only looks it up
        for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", "64_"), ("scipy_", "")):
            get = getattr(library, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(library, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                return get, set_
    return None
