"""Tests for the forked workers of ``thresholdgame._workers``."""

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import thresholdgame
from conftest import count_forks, no_child_left
from thresholdgame import _workers


class Failure(Exception):
    pass


class Unloadable(Exception):
    """Pickles, but its class takes other arguments than it stores."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def record(units, ran, pids):
    """Each unit marks that it ran and in which process."""
    for u in units:
        ran[u] = 1
        pids[u] = os.getpid()


def run(work, units, workers):
    """``_workers.run`` with two int64 outputs of one slot a unit."""
    return _workers.run(work, units, workers, [((units,), np.int64)] * 2)


def failing(fail, log=None, pause=0.0, paused=lambda u: False):
    """Work that raises ``fail[u]`` at unit u, sleeps ``pause`` seconds
    after each unit ``paused`` selects and appends every unit it starts to
    the file ``log``: the outputs of a call that raises are lost."""
    def work(units, ran, pids):
        for u in units:
            if log is not None:
                with open(log, "a") as out:
                    out.write(f"{u}\n")
            if u in fail:
                raise fail[u]
            if paused(u):
                time.sleep(pause)
    return work


def logged(log):
    return sorted(int(u) for u in log.read_text().split())


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_every_unit_runs_once_on_its_worker(workers):
    ran, pids = run(record, 11, workers)
    assert ran.tolist() == [1] * 11
    assert len(set(pids.tolist())) == workers
    assert (pids[::workers] == os.getpid()).all()
    for w in range(1, workers):  # worker w takes w, w + W, ...
        assert len(set(pids[w::workers].tolist())) == 1
    no_child_left()


def test_one_worker_forks_nothing_and_returns_plain_arrays(monkeypatch):
    monkeypatch.delattr(os, "fork")
    ran, _ = run(record, 4, 1)
    assert ran.tolist() == [1] * 4
    assert ran.base is None


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_lowest_failing_unit_raises(workers):
    # Units 3, 4, 5 and 7 fail, on different workers when there are
    # several (with two, the caller fails at 4 and the child at 3): the
    # error raised is unit 3's, as in the serial order.
    fail = {u: Failure(f"unit {u}") for u in (3, 4, 5, 7)}
    with pytest.raises(Failure, match="^unit 3$"):
        run(failing(fail), 12, workers)
    no_child_left()


def test_a_childs_exception_keeps_its_type_and_message():
    with pytest.raises(KeyError, match="^'unit 5'$"):
        run(failing({5: KeyError("unit 5")}), 12, 2)
    no_child_left()


@pytest.mark.parametrize("exc", [Unloadable(3, "bad"), Failure(lambda: None)],
                         ids=["unloadable", "unpicklable"])
def test_an_exception_that_cannot_travel_arrives_as_its_repr(exc):
    with pytest.raises(RuntimeError, match="^" + re.escape(repr(exc)) + "$"):
        run(failing({1: exc}), 4, 2)
    no_child_left()


def test_earlier_units_still_run_and_later_ones_stop(tmp_path):
    # The caller fails at once at unit 6; the forked worker, slow, still
    # runs units 1, 3 and 5 but no unit after 6.
    log = tmp_path / "units"
    with pytest.raises(Failure, match="^unit 6$"):
        run(failing({6: Failure("unit 6")}, log, 0.1, lambda u: u % 2), 16, 2)
    assert logged(log) == [0, 1, 2, 3, 4, 5, 6]
    no_child_left()


def test_a_failing_child_stops_the_caller_at_its_next_unit(tmp_path):
    # The child fails at unit 1 and the caller, slow, stops long before
    # its 20 units.
    log = tmp_path / "units"
    with pytest.raises(Failure, match="^unit 1$"):
        run(failing({1: Failure("unit 1")}, log, 0.05, lambda u: u % 2 == 0), 40, 2)
    assert logged(log)[-1] < 20
    no_child_left()


def test_a_child_killed_by_a_signal_stops_the_call(tmp_path):
    # The child dies at unit 1 without a report; the caller, slow, finds it
    # by polling and stops long before its 20 units.
    log = tmp_path / "units"

    def work(units, ran, pids):
        for u in units:
            with open(log, "a") as out:
                out.write(f"{u}\n")
            if u == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.05)

    with pytest.raises(RuntimeError, match=r"^worker process \d+ ended with signal 9$"):
        run(work, 40, 2)
    assert logged(log)[-1] < 20
    no_child_left()


def test_an_interrupt_kills_every_child():
    # The children would sleep for a minute; the interrupted caller kills
    # them instead of waiting.
    def work(units, ran, pids):
        for u in units:
            if u == 0:
                raise KeyboardInterrupt
            time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run(work, 3, 3)
    assert time.monotonic() - start < 30
    no_child_left()


def test_a_failed_fork_leaves_its_units_to_the_caller(monkeypatch):
    forks = count_forks(monkeypatch)
    fork = os.fork

    def flaky():
        if len(forks) == 1:
            raise OSError("no more processes")
        return fork()

    monkeypatch.setattr(os, "fork", flaky)
    ran, pids = run(record, 9, 3)
    assert ran.tolist() == [1] * 9
    here = os.getpid()
    assert [pid == here for pid in pids.tolist()] == [u % 3 != 1 for u in range(9)]
    no_child_left()


def test_other_threads_leave_one_worker(monkeypatch):
    monkeypatch.setattr(_workers, "cpu_count", lambda: 4)
    assert _workers.available() == 4
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert _workers.available() == 1
    finally:
        release.set()
        thread.join(60)
    assert not thread.is_alive()
    assert _workers.available() == 4


def test_no_os_fork_leaves_one_worker(monkeypatch):
    monkeypatch.setattr(_workers, "cpu_count", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert _workers.available() == 1


def test_a_child_neither_returns_nor_flushes_the_callers_buffers():
    # Buffered, unflushed output before the call, and code after it, each
    # appear once: a child never returns into the caller's code and leaves
    # by os._exit, which flushes nothing.
    probe = ("import numpy as np, sys\n"
             "from thresholdgame import _workers\n"
             "sys.stdout.write('before ')\n"
             "def work(units, out):\n"
             "    for u in units:\n"
             "        out[u] = u\n"
             "out, = _workers.run(work, 6, 3, [((6,), np.int64)])\n"
             "print('after', out.tolist())\n")
    src = str(Path(thresholdgame.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout == "before after [0, 1, 2, 3, 4, 5]\n"
