"""How fast the CPUs under a child process run, measured while the child runs.

On a shared host each virtual CPU slows down and speeds up on its own,
by up to half, over tenths of a second to minutes.  A CLI invocation's
wall time follows that speed, so two runs of the same code minutes apart
can differ by a third.  To take the host's speed out of the figure, the
benchmark stops the child every ``PERIOD`` seconds, runs a fixed piece of
work (``probe``) on each CPU the child was running on, and lets the child
go on.  The child's wall time excludes those pauses; multiplying it by
``REFERENCE_S`` over the probe's mean time during the invocation gives
its time at the reference speed.

Probes taken between invocations, or on the other CPU, follow the
child's speed poorly (a correlation of 0.5 and 0.1 with its wall time
on a 2-CPU host).  Short, frequent probes on its own CPUs follow it
closely: on the same host the spread of one invocation's time fell from
11% to 2% (interpreter-bound) and from 6% to 3.5% (memory-bound, two
BLAS threads), standard deviation over mean of 20 invocations.
"""

from __future__ import annotations

import math
import os
import select
import signal
import time
from dataclasses import dataclass

import numpy as np

# Seconds between probes, and the probe's time at the reference speed
# (its typical time on a 2.1 GHz Xeon vCPU while a CLI invocation runs).
# A probe takes about a tenth of ``PERIOD`` per busy CPU, so the pauses
# add a tenth to a fifth to an invocation's elapsed time.
PERIOD = 0.1
REFERENCE_S = 0.009

# The kind of work the CLI does: a tree-walking evaluator over float
# points, float formatting, and numpy passes over an array larger than
# the L2 cache.
_TREE = ("add", ("mul", ("exp", ("neg", ("abs", ("sub", "x", 0.5)))), ("sin", "y")),
         ("log", ("add", 1.0, ("mul", "x", "y"))))
_UNARY = {"exp": math.exp, "sin": math.sin, "log": math.log, "abs": abs, "neg": lambda a: -a}
_POINTS = 1000
_ARRAY = np.linspace(0.0, 1.0, 1 << 17)


def _evaluate(node, x: float, y: float) -> float:
    if node == "x":
        return x
    if node == "y":
        return y
    if isinstance(node, float):
        return node
    op = node[0]
    if op == "add":
        return _evaluate(node[1], x, y) + _evaluate(node[2], x, y)
    if op == "sub":
        return _evaluate(node[1], x, y) - _evaluate(node[2], x, y)
    if op == "mul":
        return _evaluate(node[1], x, y) * _evaluate(node[2], x, y)
    return _UNARY[op](_evaluate(node[1], x, y))


def probe() -> tuple[float, float]:
    """Run the fixed work once; return its wall and its CPU seconds."""
    wall, cpu = time.perf_counter(), time.thread_time()
    rows = []
    for i in range(_POINTS):
        x = i / _POINTS
        rows.append(f"{x!r},{_evaluate(_TREE, x, 1.0 - x)!r}")
    "\n".join(rows)
    float(np.sin(_ARRAY * 3.0).sum())
    return time.perf_counter() - wall, time.thread_time() - cpu


def _busy_cpus(pid: int) -> set:
    """CPUs that ``pid``'s running threads were last on, or its main thread's CPU if none runs.

    Fields 3 (state) and 39 (CPU) of /proc/<pid>/task/<tid>/stat.
    """
    cpus, main = set(), None
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/stat", "rb") as fh:
                fields = fh.read().rpartition(b")")[2].split()
        except FileNotFoundError:  # the thread has just ended
            continue
        if fields[0] == b"R":
            cpus.add(int(fields[36]))
        if tid == str(pid):
            main = int(fields[36])
    return cpus or {main}


def _probe_on_cpus_of(pid: int) -> list:
    """Stop ``pid``, run ``probe`` on each CPU it was running on, resume it; return the probes.

    A child that runs threads on both CPUs moves at their mean speed.
    """
    cpus = _busy_cpus(pid)
    mask = os.sched_getaffinity(0)
    os.kill(pid, signal.SIGSTOP)
    try:
        probes = []
        for cpu in sorted(cpus & mask):
            os.sched_setaffinity(0, {cpu})
            probes.append(probe())
        return probes or [probe()]
    finally:
        os.sched_setaffinity(0, mask)
        os.kill(pid, signal.SIGCONT)


@dataclass
class Probed:
    """A reaped child, with what probing it found."""

    status: int
    usage: object
    paused_s: float  # time it spent stopped for probes
    probes: list  # (wall, CPU) seconds of each probe

    def wall_scale(self) -> float:
        """Multiply a wall time by this for wall seconds at the reference speed."""
        return REFERENCE_S * len(self.probes) / sum(wall for wall, _ in self.probes)

    def cpu_scale(self) -> float:
        """Multiply a CPU time by this for CPU seconds at the reference speed.

        Time the host takes a CPU away slows the probe's wall time but
        neither its CPU time nor the child's, so CPU times scale by CPU times.
        """
        return REFERENCE_S * len(self.probes) / sum(cpu for _, cpu in self.probes)


def wait_probing(pid: int) -> Probed:
    """Reap child ``pid``, probing the speed of its CPUs every ``PERIOD`` seconds.

    The child is never left stopped: a probe resumes it on every path
    out.  A child that ends before the first probe is timed against one
    probe run after it ends.
    """
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        paused, probes = 0.0, []
        while not poller.poll(PERIOD * 1000):
            began = time.perf_counter()
            probes += _probe_on_cpus_of(pid)
            paused += time.perf_counter() - began
    finally:
        os.close(pidfd)
    _, status, usage = os.wait4(pid, 0)
    return Probed(status, usage, paused, probes or [probe()])
