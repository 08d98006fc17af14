"""workers.fork_map: results in item order, errors as one core gives them, no worker left behind."""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time

import pytest

from fetalguard.errors import FetalGuardError, ParseError, TrainingError
from fetalguard.workers import fork_map, openblas_threads

FORK = hasattr(os, "fork")
# 1 calls the function in this process; more forks min(cores, items) workers
CORE_COUNTS = (1, 2, 3, 5) if FORK else (1,)
needs_fork = pytest.mark.skipif(not FORK, reason="fork_map forks workers only where fork exists")


def test_results_come_back_in_item_order_on_every_core_count(set_cores):
    items = list(range(11))
    for cores in CORE_COUNTS:
        set_cores(cores)
        results = fork_map(lambda i: (i, i * i), items, "squaring")
        # the last result comes after every worker is joined, so taking each result ends them all
        assert [next(results) for _ in items] == [(i, i * i) for i in items]
        assert not multiprocessing.active_children()
        assert next(results, None) is None


def test_no_items_calls_nothing(set_cores):
    set_cores(3)
    assert list(fork_map(lambda item: pytest.fail("called"), [], "nothing")) == []


@needs_fork
def test_one_core_or_one_item_calls_in_this_process_and_more_fork(set_cores):
    parent = os.getpid()
    set_cores(1)
    assert list(fork_map(lambda _: os.getpid(), [0, 1, 2], "pid")) == [parent] * 3
    set_cores(3)
    assert list(fork_map(lambda _: os.getpid(), [0], "pid")) == [parent]
    pids = list(fork_map(lambda _: os.getpid(), [0, 1, 2, 3], "pid"))
    assert parent not in pids
    assert pids[0] == pids[3] and len(set(pids)) == 3  # dealt round robin to 3 workers



@needs_fork
def test_each_worker_takes_its_share_of_the_blas_threads(set_cores):
    np = pytest.importorskip("numpy")
    np.ones((2, 2)) @ np.ones((2, 2))
    blas = openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, set_ = blas
    before = get()
    set_cores(3)
    try:
        for parent_threads, items, share in ((6, 3, 2), (6, 2, 3), (2, 3, 1), (1, 2, 1)):
            set_(parent_threads)
            # N workers of the parent's count each would spin-wait on each other's cores
            assert list(fork_map(lambda _: openblas_threads()[0](), list(range(items)), "blas")) == [share] * items
            assert get() == parent_threads
    finally:
        set_(before)


def _fails_at(failing: dict):
    """A function that raises failing[item] for the items it names and returns the item otherwise."""

    def call(item):
        if item in failing:
            raise failing[item]
        return item

    return call


def test_the_lowest_indexed_error_is_raised_with_its_attributes(set_cores):
    failing = {
        4: TrainingError("loss went NaN at epoch 3", diagnostics={"epoch": 3, "loss": float("inf")}),
        6: ParseError("non-numeric cell", line=7),
        9: ValueError("late"),
    }
    for cores in CORE_COUNTS:
        set_cores(cores)
        with pytest.raises(TrainingError) as exc:
            list(fork_map(_fails_at(failing), list(range(12)), "failing"))
        assert str(exc.value) == "loss went NaN at epoch 3"
        assert exc.value.diagnostics == {"epoch": 3, "loss": float("inf")}
        with pytest.raises(ParseError) as exc:
            list(fork_map(_fails_at({6: failing[6], 9: failing[9]}), list(range(12)), "failing"))
        assert (str(exc.value), exc.value.line) == ("line 7: non-numeric cell", 7)
        assert not multiprocessing.active_children()


@needs_fork
def test_a_worker_with_only_later_items_left_is_ended_at_the_first_error(set_cores):
    def call(item):
        if item == 0:
            raise TrainingError("first item fails")
        time.sleep(60)  # the other worker's item: it must not be waited for

    set_cores(2)
    start = time.perf_counter()
    with pytest.raises(TrainingError, match="first item fails"):
        list(fork_map(call, [0, 1], "sleeping"))
    assert time.perf_counter() - start < 30
    assert not multiprocessing.active_children()


@needs_fork
def test_a_worker_that_dies_is_one_line_naming_its_exit_code(set_cores):
    def dies_at_five(item):
        if item == 5:
            os._exit(3)
        return item

    set_cores(3)
    with pytest.raises(FetalGuardError) as exc:
        list(fork_map(dies_at_five, list(range(9)), "counting"))
    # worker 2 of 3 holds items 2, 5 and 8; it sent item 2 before it died
    assert str(exc.value) == "a counting worker exited with code 3 before sending 2 of its results"
    assert not multiprocessing.active_children()


@needs_fork
def test_an_interrupt_while_waiting_ends_every_worker(monkeypatch, set_cores):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(multiprocessing.connection.Connection, "recv", interrupted)
    set_cores(3)
    with pytest.raises(KeyboardInterrupt):
        list(fork_map(lambda item: time.sleep(60), [0, 1, 2], "sleeping"))
    assert not multiprocessing.active_children()


@needs_fork
def test_a_caller_that_stops_early_and_closes_the_results_ends_every_worker(set_cores):
    def call(item):
        if item > 0:
            time.sleep(60)  # never asked for
        return item

    set_cores(3)
    start = time.perf_counter()
    results = fork_map(call, [0, 1, 2, 3], "sleeping")
    assert next(results) == 0  # read before the later items are done
    results.close()
    assert time.perf_counter() - start < 30
    assert not multiprocessing.active_children()
