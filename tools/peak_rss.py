"""Run one csisense command and print its wall seconds and peak RSS.

Usage: python tools/peak_rss.py <command> [flags...]
e.g.   python tools/peak_rss.py classify --weights models --input trials --out predictions

This script is the fresh interpreter: it puts the checkout's ``src/`` first
on the path, calls ``csisense.cli.main`` with the arguments once, and then
prints ``wall_s <seconds> peak_rss_mb <MB> child_peak_rss_mb <MB>`` on
standard output.  Wall time covers ``main`` alone, not the interpreter start
or the import.  Peak RSS is the process's ``ru_maxrss`` (KiB on Linux) over
1024, the figure perfbench reports, so it counts the import too.  The child
peak is the largest of the processes the command started and waited for:
its ``--jobs`` workers, or a few MB of helper process without them.  The
exit status is the command's.  Only the standard library is used besides
csisense itself.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from csisense.cli import main  # noqa: E402


def measure(argv: list[str]) -> int:
    start = time.perf_counter()
    status = main(argv)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"wall_s {wall:.3f} peak_rss_mb {peak:.1f} child_peak_rss_mb {child:.1f}")
    return status


if __name__ == "__main__":
    raise SystemExit(measure(sys.argv[1:]))
