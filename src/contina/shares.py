"""Run independent tasks side by side, one per CPU this process may use.

``run_shares`` runs the first task in the calling process and each other
task in a forked child. A child sends its task's result, or the error the
task raised, back through a pipe and exits. The region replay and
the CSV reader cut their work into such tasks, one per ``usable_cpus()``.
"""

from __future__ import annotations

import os
import pickle
import threading


def usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where forking is unavailable or unsafe.

    Forking needs ``os.sched_getaffinity`` (Linux) and is unsafe while another
    thread is alive.
    """
    if not hasattr(os, "sched_getaffinity") or threading.active_count() != 1:
        return 1
    return len(os.sched_getaffinity(0))


def run_shares(tasks) -> list:
    """Call each of ``tasks`` (callables without arguments); return their results in order.

    ``tasks[0]`` runs here, after a child has been forked for each other
    task, so every task starts from the state this process has now. Every
    child is read to EOF and waited for, also when the first task raises. If
    tasks fail, the error of the earliest failing one is raised; a child
    that exits without sending anything raises ChildProcessError.
    """
    children = []
    try:
        for task in tasks[1:]:
            children.append(_fork(task))
        results = [tasks[0]()]
    finally:
        ended = [_reap(pid, fd) for pid, fd in children]
    for data, status in ended:
        if not data:
            raise ChildProcessError(f"a share ended with exit status {status} and no result")
        payload = pickle.loads(data)
        if isinstance(payload, Exception):
            raise payload
        results.append(payload[0])
    return results


def _fork(task):
    """Run ``task()`` in a forked child; return its pid and its pipe's read end."""
    r, w = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            _send_share(w, task)
    except BaseException:
        os.close(r)
        raise
    finally:
        os.close(w)
    return pid, r


def _send_share(fd, task):
    """In a forked child: pickle ``(task(),)``, or the error it raised, into ``fd``; exit.

    ``os._exit`` skips atexit handlers and the flushing of inherited buffers,
    which belong to the parent.
    """
    status = 1
    try:
        try:
            payload = (task(),)
        except Exception as e:
            payload = e
        data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _reap(pid, fd):
    """Read a child's pipe to EOF and wait for it; return the bytes and its exit status."""
    try:
        with os.fdopen(fd, "rb") as fh:
            data = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    return data, os.waitstatus_to_exitcode(status)
