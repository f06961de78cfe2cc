"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose neighbours
slow pure-Python code by up to half for seconds to minutes at a time
(cache and memory contention: the process's CPU time grows with its
wall time, so it is not descheduling).  :func:`kernel_seconds` times a
fixed piece of standard-library Python with the same habits as the
simulator — attribute access on many small objects, string-keyed dict
lookups, pointer chasing through a shuffled graph, a heap of tuples —
and nothing from ``src/``, so a change to the program never changes
it.  ``run.py`` times the kernel around every part of every repeat and
scales the part's time by :data:`NOMINAL_S` over the mean of the two
readings, which reports it in seconds of a host running at its quiet
speed.

Run as a script, this module times the kernel once and prints the
seconds.
"""

from __future__ import annotations

import heapq
import random
import subprocess
import sys
import time

#: The kernel's time on the quiet host the benchmark was defined on
#: (2 vCPUs of a shared x86-64 VM, CPython 3.11).
NOMINAL_S = 0.35
#: Objects in the kernel's graph: a working set of about 35 MB, well
#: past the host's per-core cache, like the simulator's.
NODES = 50_000


class _Node:
    __slots__ = ("key", "after", "weight", "links")


def kernel() -> float:
    """The reference work; returns a checksum so none of it is idle."""
    rng = random.Random(12345)
    nodes = []
    for index in range(NODES):
        node = _Node()
        node.key = f"n{index}"
        node.weight = rng.random()
        node.links = {}
        nodes.append(node)
    order = list(range(NODES))
    rng.shuffle(order)
    for index in range(NODES):
        nodes[order[index - 1]].after = order[index]
        nodes[index].links[order[index] & 255] = (index, order[index])
    by_key = {node.key: node for node in nodes}
    total, at = 0.0, 0
    for __ in range(3 * NODES):
        node = nodes[at]
        total += node.weight
        at = by_key[f"n{node.after}"].after
    heap = [(node.weight, index) for index, node in enumerate(nodes)]
    heapq.heapify(heap)
    while heap:
        total += heapq.heappop(heap)[0]
    return total


def kernel_seconds() -> float:
    """Wall seconds of one :func:`kernel` call.  It runs in a fresh
    interpreter, which this call waits for, so the program's heap does
    not enter the reading and the kernel's does not enter the
    program's peak memory."""
    done = subprocess.run([sys.executable, __file__], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout)


if __name__ == "__main__":
    started = time.perf_counter()
    kernel()
    print(time.perf_counter() - started)
