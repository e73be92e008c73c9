"""One timed pass over ``protect_explicit``'s jobs, in this interpreter.

Started by ``protect_explicit`` (workloads.py) once per timed pass, with
the program's sources on ``PYTHONPATH``::

    python3 perfbench/explicit_pass.py SEED

Prints one JSON object: ``requests`` maps each request label to its
wall seconds (host-speed scaled, see ``common.HostClock``) and exact
outputs, and ``peak_rss_mb`` is this process's
peak resident memory.
"""

import json
import sys

from common import Context, build_corpus, own_peak_rss_mb
from layers import Instruments
from workloads import explicit_jobs, explicit_request


def main() -> None:
    seed = int(sys.argv[1])
    ctx = Context("protect_explicit", seed, 0.0, traced=False)
    programs, _seconds = build_corpus(ctx)
    instruments = Instruments()
    requests = {}
    ctx.clock.mark()
    for job in explicit_jobs(seed):
        _protected, record = explicit_request(ctx, instruments, programs, job, False)
        requests[record["label"]] = [record["wall"], record["exact"]]
    print(json.dumps({"requests": requests, "peak_rss_mb": own_peak_rss_mb()}))


if __name__ == "__main__":
    main()
