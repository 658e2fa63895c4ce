"""The traced counterpart of ``python -m repro observatory serve``.

Builds the same :class:`AsyncObservatoryServer` over a read-only
:class:`EventStore` that the CLI builds, wraps the server's layer
objects so every call records a span, serves until SIGTERM, then writes
the spans to ``--spans``.

    python3 perfbench/traced_server.py STORE --port P --spans FILE
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from common import import_repro

import_repro()

from tracing import Tracer  # noqa: E402

from repro.observatory import EventStore  # noqa: E402
from repro.observatory.asyncserver import AsyncObservatoryServer  # noqa: E402


def route_of(path: str) -> str:
    if path.startswith("/zombies/"):
        return "zombie"
    if path.endswith("/forensics"):
        return "forensics"
    return path.strip("/") or "root"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("store")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    store = EventStore(args.store, readonly=True)
    server = AsyncObservatoryServer(store, host=args.host, port=args.port)
    tracer = Tracer()
    tracer.patch(server, "respond", "http.respond",
                 tag=lambda a, r: ["not_modified" if r[0] == 304
                                   else route_of(a[0]), r[0]])
    tracer.patch(server.views, "refresh", "views.refresh")
    tracer.patch(store, "events", "store.scan", iterator=True)
    tracer.patch(store, "position", "store.position")
    print(f"observatory listening on http://{args.host}:{args.port} (traced)",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    tracer.dump(Path(args.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
