"""Time a fixed pure-Python load whenever a line arrives on standard input.

The benchmark keeps this process beside it, pinned to the same CPU, and
asks it for one timing before and after each request.  It runs in a process
of its own so that its memory never counts in a workload's peak RSS.  The
load, building tuples of integer sums over a working set of about 30 MB,
resembles the program's own loops, so it slows down as they do when other
tenants of the machine contend for the CPU and its caches.
"""

import sys
import time


def load_s() -> float:
    start = time.perf_counter()
    data = tuple(range(400_000))
    for _ in range(2):
        data = tuple(data[k] + data[k + 1] for k in range(len(data) - 1))
    return time.perf_counter() - start


def main() -> None:
    for _ in sys.stdin:
        print(load_s(), flush=True)


if __name__ == "__main__":
    main()
