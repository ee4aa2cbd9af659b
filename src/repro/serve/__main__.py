"""``python -m repro.serve`` — boot the simulation daemon.

Prints one machine-readable line once the socket is bound::

    repro.serve listening on 127.0.0.1:8787

(the load generator's ``--spawn`` mode parses it), then serves until
``POST /shutdown`` or SIGINT, draining in-flight work before exiting 0.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from ..core.service import DEFAULT_MAX_BYTES, ServiceEngine
from .server import ServiceServer

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, run the daemon to completion, return exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="long-lived simulation daemon with a cross-request "
        "view-class cache (protocol: docs/SERVICE.md)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787,
                        help="0 picks a free port (printed on stdout)")
    parser.add_argument("--max-bytes", type=int, default=DEFAULT_MAX_BYTES,
                        help="class-table budget in estimated bytes before "
                        "LRU eviction (the estimate reads about a third of "
                        "the resident memory the tables add)")
    parser.add_argument("--max-graphs", type=int, default=32,
                        help="warm registry graphs retained")
    parser.add_argument("--max-batch", type=int, default=16,
                        help="max specs per dispatcher micro-batch")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-request seconds before a structured "
                        "503 degradation response")
    args = parser.parse_args(argv)

    engine = ServiceEngine(max_bytes=args.max_bytes, max_graphs=args.max_graphs)
    server = ServiceServer(
        host=args.host,
        port=args.port,
        engine=engine,
        max_batch=args.max_batch,
        timeout=args.timeout,
    )

    async def run() -> None:
        await server.start()
        print(
            f"repro.serve listening on {server.host}:{server.port}",
            flush=True,
        )
        await server.serve_until_shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
