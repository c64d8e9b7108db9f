"""Run the units of a call on forked worker processes.

:func:`run` calls ``work(units, *outputs)`` on each of W workers, worker w
taking units w, w + W, w + 2W, ... in order.  Worker 0 is the calling
process and the others are ``os.fork()`` children: they start from the
caller's memory, arguments included, so nothing is sent to them.  The
``outputs`` are zeroed arrays laid out in one shared anonymous ``mmap``
made before the fork, so what a child writes into them reaches the caller.
When each unit writes only results of its own, W changes no bit.

A worker that raises stops.  The others skip every later unit but still
run each earlier one, so the error raised is the one the serial order
raises: that of the lowest unit.  A child's exception comes back pickled
through a pipe, with its type and message, or as a ``RuntimeError``
carrying its repr if it cannot be pickled.  Between its own units the
caller polls its children with ``waitpid(WNOHANG)``, so a child that ends
without a report, killed by a signal say, stops it too.  On any exit, an
interrupt included, the caller kills and reaps every child still running:
no process outlives a call.  A child leaves by ``os._exit`` on every path,
so it never returns into the caller's code (the rest of a test session,
say), runs no exit handlers and flushes none of the caller's buffers.

A fork copies the calling thread only, and a lock that another thread held
would stay held in the child, so a process with other threads running, or
without ``os.fork``, gets one worker (:func:`available`) and forks nothing.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
import threading
from typing import Callable, Iterator, Sequence

import numpy as np


def cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def available() -> int:
    """The workers a call may use: one per CPU, but one alone where
    ``os.fork`` is missing or another thread runs."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return cpu_count()


class _Units:
    """The units ``mine`` of the worker with failure slot ``w``, in order.
    A unit is handed out only while no worker has failed at an earlier one
    (``failed`` holds each worker's failed unit, -1 for a failure outside
    any unit, and the unit count for none); ``poll``, if given, runs before
    each.  ``unit`` is the unit being run, -1 before the first."""

    def __init__(self, w: int, mine: Sequence[int], failed: np.ndarray,
                 poll: Callable[[], None] | None = None):
        self.w, self.mine, self.failed, self.poll = w, mine, failed, poll
        self.unit = -1

    def __iter__(self) -> Iterator[int]:
        for u in self.mine:
            if self.poll is not None:
                self.poll()
            if self.failed.min() < u:
                return
            self.unit = u
            yield u


class _Child:
    """A forked worker: its pid, the read end of its report pipe and, once
    reaped, its wait status."""

    def __init__(self, pid: int, fd: int):
        self.pid, self.fd, self.status = pid, fd, None

    def reap(self, flags: int = 0) -> None:
        pid, status = os.waitpid(self.pid, flags)
        if pid:
            self.status = status

    def report(self) -> bytes:
        """Everything the child writes to its pipe, read until it ends."""
        parts = []
        while part := os.read(self.fd, 1 << 16):
            parts.append(part)
        return b"".join(parts)


def _shared(specs) -> list[np.ndarray]:
    """Zeroed arrays of the ``(shape, dtype)`` ``specs`` in one shared
    anonymous mmap, each at a 64-byte boundary."""
    counts = [math.prod(shape) for shape, _ in specs]
    sizes = [-(-count * np.dtype(dtype).itemsize // 64) * 64
             for count, (_, dtype) in zip(counts, specs)]
    buf = mmap.mmap(-1, sum(sizes))
    starts = np.cumsum([0, *sizes]).tolist()
    return [np.frombuffer(buf, dtype, count, start).reshape(shape)
            for (shape, dtype), count, start in zip(specs, counts, starts)]


def _pickled(exc: BaseException) -> bytes:
    """``exc`` pickled, or a ``RuntimeError`` carrying its repr if it does
    not survive the round trip (an exception whose class takes other
    arguments pickles but does not load)."""
    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
    except Exception:
        data = pickle.dumps(RuntimeError(repr(exc)))
    return data


def _child(work: Callable[..., None], units: _Units, arrays: list[np.ndarray], fd: int):
    """The life of a forked worker: run its units, report any exception on
    ``fd`` and leave by ``os._exit``, whatever happens."""
    code = 1
    try:
        try:
            work(units, *arrays)
            code = 0
        except BaseException as exc:  # reported to the caller, which raises it
            units.failed[units.w] = units.unit
            view = memoryview(_pickled(exc))
            while view:
                view = view[os.write(fd, view):]
    finally:
        os._exit(code)


def run(work: Callable[..., None], units: int, workers: int,
        outputs: Sequence[tuple[tuple[int, ...], type]]) -> list[np.ndarray]:
    """Call ``work(mine, *arrays)`` on each of ``workers`` workers and
    return ``arrays``, zeroed arrays of the ``(shape, dtype)`` ``outputs``.

    ``mine`` iterates over the worker's units of ``range(units)``, worker w
    taking w, w + W, ..., and stops early once another worker has failed at
    an earlier unit.  With one worker ``work`` simply runs here on
    ``range(units)``.  If a fork fails, the caller also runs the units of
    the workers not started.
    """
    if workers <= 1:
        arrays = [np.zeros(shape, dtype) for shape, dtype in outputs]
        work(range(units), *arrays)
        return arrays
    *arrays, failed = _shared([*outputs, ((workers,), np.int64)])
    failed[:] = units
    children: dict[int, _Child] = {}  # keyed by worker

    def poll() -> None:
        for w, child in children.items():
            if child.status is None:
                child.reap(os.WNOHANG)
                if child.status and failed[w] == units:  # ended without a report
                    failed[w] = -1

    try:
        for w in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                os.close(read)
                _child(work, _Units(w, range(w, units, workers), failed), arrays, write)
            children[w] = _Child(pid, read)
            os.close(write)
        mine = _Units(0, [u for u in range(units) if u % workers not in children], failed, poll)
        errors = []
        try:
            work(mine, *arrays)
        except Exception as exc:  # the children may still reach an earlier failure
            failed[0] = mine.unit
            errors.append((mine.unit, exc))
        for w, child in children.items():
            report = child.report()
            if child.status is None:
                child.reap()
            if report:
                errors.append((int(failed[w]), pickle.loads(report)))
            elif child.status:
                code = os.waitstatus_to_exitcode(child.status)
                errors.append((int(failed[w]), RuntimeError(
                    f"worker process {child.pid} ended with "
                    + (f"signal {-code}" if code < 0 else f"exit code {code}"))))
        if errors:
            raise min(errors, key=lambda error: error[0])[1]
        return arrays
    finally:
        for child in children.values():
            if child.status is None:
                os.kill(child.pid, signal.SIGKILL)
                child.reap()
            os.close(child.fd)
