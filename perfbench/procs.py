"""Keeping the benchmark's process tree closed.

Every process the benchmark starts, directly or through the package's spawn
pools, must have ended and been reaped before the benchmark exits.  A spawn
pool starts a multiprocessing resource tracker that outlives the pool: in
this process it is stopped by stop_resource_tracker(); in a child command it
is orphaned when the command exits.  become_subreaper() makes such orphans
children of the benchmark, so that reap_group() and reap_children() can wait
for them instead of leaving them to whoever adopts them.
"""
from __future__ import annotations

import contextlib
import ctypes
import os
import signal
import time

PR_SET_CHILD_SUBREAPER = 36  # from <linux/prctl.h>
POLL_S = 0.01


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux prctl); False where that fails."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker, if one runs,
    and wait for it to end."""
    import multiprocessing.resource_tracker as rt

    stop = getattr(rt._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def processes() -> dict:
    """{pid: (ppid, pgrp, state)} of every process in /proc."""
    procs = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except OSError:  # the process ended while the list was read
            continue
        procs[int(entry.name)] = (int(fields[1]), int(fields[2]), fields[0])
    return procs


def _wait_until_gone(select, timeout: float) -> None:
    """Reap the processes select() picks from processes() until none is
    left; after `timeout` seconds, kill each one left.  Zombies that
    are not this process's children belong to another reaper; they are
    ended already and not waited for."""
    me = os.getpid()
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        left = []
        for pid, (ppid, _, state) in select(processes()).items():
            if ppid == me:
                with contextlib.suppress(ChildProcessError):
                    if os.waitpid(pid, os.WNOHANG)[0] == pid:
                        continue
                left.append(pid)
            elif state != b"Z":
                left.append(pid)
        if not left:
            return
        if not killed and time.monotonic() > deadline:
            for pid in left:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            killed = True
        time.sleep(POLL_S)


def reap_group(pgid: int, timeout: float = 10.0) -> None:
    """Wait for every process of process group `pgid` (a command started
    in a session of its own) to end; kill the group after `timeout`."""
    _wait_until_gone(
        lambda procs: {p: v for p, v in procs.items() if v[1] == pgid},
        timeout)


def reap_children(timeout: float = 10.0) -> None:
    """Wait for every child of this process to end; kill those left after
    `timeout`.  Call it last: it also reaps children that others (such as
    subprocess.Popen) would wait for."""
    me = os.getpid()
    _wait_until_gone(
        lambda procs: {p: v for p, v in procs.items() if v[0] == me},
        timeout)
