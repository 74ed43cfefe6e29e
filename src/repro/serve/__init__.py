"""``repro serve`` — the long-lived compile-and-run service.

The compile-once pipeline's expensive artifacts (plans, fused
kernels, verifier certificates, warm worker pools) are process-global
by design; this package makes them reachable from *many clients* over a
socket instead of dying with each CLI invocation.  Layers:

``protocol``      the newline-delimited JSON request/response schema
``singleflight``  async coalescing of identical in-flight compiles
``service``       :class:`ReproService` — quotas, deadlines, executor
                  offload, the op handlers
``server``        the asyncio daemon (graceful SIGTERM drain)
``client``        blocking :class:`ServeClient` for scripts/benchmarks

See ``docs/serving.md`` for the protocol and a worked transcript.
"""

from .client import ServeClient, ServeError, connect
from .protocol import (
    ERR_BADREQ,
    ERR_COMPILE,
    ERR_INTERNAL,
    ERR_QUOTA,
    ERR_RUN,
    ERR_TIMEOUT,
    OPS,
    ProtocolError,
    request_key,
)
from .server import ReproServer, serve_main
from .service import ReproService, ServiceError
from .singleflight import SingleFlight

__all__ = [
    "ERR_BADREQ",
    "ERR_COMPILE",
    "ERR_INTERNAL",
    "ERR_QUOTA",
    "ERR_RUN",
    "ERR_TIMEOUT",
    "OPS",
    "ProtocolError",
    "ReproServer",
    "ReproService",
    "ServeClient",
    "ServeError",
    "ServiceError",
    "SingleFlight",
    "connect",
    "request_key",
    "serve_main",
]
