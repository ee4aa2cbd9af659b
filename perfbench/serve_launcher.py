"""Start the simulation daemon with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/serve_launcher.py SPANS_OUT [repro.serve arguments...]

Behaves exactly like ``python -m repro.serve`` (same arguments, same
``listening on`` line, same ``/shutdown``), except that every call into
the wrapped layer entry points records a span, and the spans are
written to ``SPANS_OUT`` as JSON lines when the daemon exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

import bench_trace


def main() -> int:
    """Run the daemon with spans recorded; returns its exit code."""
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, daemon_args = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.serve.__main__ import main as serve_main

    recorder = bench_trace.Recorder()
    bench_trace.instrument(recorder)
    try:
        return serve_main(daemon_args)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
