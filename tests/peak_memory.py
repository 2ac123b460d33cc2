"""Traced peak memory of a whole ``cli.run``.

A ``teemate`` burst of n requests on 64 workers runs through ``cli.run``
under ``tracemalloc``: the simulation, the summary and a streamed
``metrics.csv``. Its peak must stay within ``PEAK_BYTES_PER_REQUEST``
per request, half of what a run that built a record object per request
peaked at (9.8 MiB at 20,000 requests and 98.4 MiB at 200,000, about
514 B per request, on Python 3.11).

Tier-1 checks 20,000 requests (``tests/test_cli.py``); a larger run is
too slow there under ``tracemalloc``, so CI runs

    PYTHONPATH=src python tests/peak_memory.py 200000

which exits 1 above the cap.
"""

import sys
import tempfile
import tracemalloc

from enclavesim import cli

PEAK_BYTES_PER_REQUEST = 256


def traced_peak(n_requests: int, out_dir: str) -> int:
    """Bytes ``cli.run`` allocated at its peak, over what was traced
    before it started."""
    config = cli.parse_config(
        "[serverless_throughput]\nmodel = teemate\nworkload = sleep\n"
        f"n_requests = {n_requests}\nworkers = 64\nseed = 0\n")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert cli.run(config, out_dir) == 0
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def main(argv) -> int:
    n_requests = int(argv[1])
    with tempfile.TemporaryDirectory() as out_dir:
        peak = traced_peak(n_requests, out_dir)
    cap = PEAK_BYTES_PER_REQUEST * n_requests
    print(f"{n_requests} requests: traced peak {peak / 2**20:.1f} MiB "
          f"({peak / n_requests:.0f} B per request), cap {cap / 2**20:.1f} "
          "MiB")
    return 0 if peak <= cap else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
