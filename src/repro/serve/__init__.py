"""Protection-as-a-service: the ``repro serve`` asyncio daemon.

The ROADMAP's traffic story needs a long-running server, not a CLI:
protection is referentially transparent (every ``protect`` is a pure
function of bytes + config + seed), so a serving layer can amortize the
offline step across clients the way the per-process cache already does
within one.  This package supplies that layer, stdlib-only:

* :mod:`repro.serve.http` — minimal HTTP/1.1 framing over asyncio
  streams (keep-alive, bounded headers/body, no dependencies);
* :mod:`repro.serve.singleflight` — concurrent identical requests
  coalesce onto one in-flight execution whose result fans out to every
  waiter (``serve.singleflight.{leader,follower}`` metrics);
* :mod:`repro.serve.quota` — per-tenant token-bucket admission;
* :mod:`repro.serve.jobs` — the picklable job bodies executed on the
  worker pool, one pool submit per job;
* :mod:`repro.serve.server` — admission → single-flight → pool →
  cache, plus ``/metrics``, ``/stats``, ``/journal``,
  graceful SIGTERM drain;
* :mod:`repro.serve.client` — blocking and asyncio clients used by the
  tests, the CI smoke job, and the load generators
  (``perfbench/serve_load.py``, ``benchmarks/bench_speed_gates.py``).
"""

from .client import AsyncServeClient, ServeClient
from .jobs import JOB_KINDS, execute_job, job_key, make_task
from .quota import QuotaManager, TokenBucket
from .server import ProtectionServer, ServeConfig, ServerThread, serve
from .singleflight import SingleFlight

__all__ = [
    "AsyncServeClient",
    "ServeClient",
    "JOB_KINDS",
    "execute_job",
    "job_key",
    "make_task",
    "QuotaManager",
    "TokenBucket",
    "ProtectionServer",
    "ServeConfig",
    "ServerThread",
    "serve",
    "SingleFlight",
]
