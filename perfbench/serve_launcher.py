"""Run ``repro serve`` with the layer wrappers installed (traced runs).

Imports ``repro.cli``, installs the wrappers, then calls
``repro.cli.main(["serve", ...])`` exactly as ``python -m repro serve``
would.  When the daemon has drained (SIGTERM), the spans are written
to ``--trace-out`` and the daemon's exit code is returned.

    python3 perfbench/serve_launcher.py --trace-out t.json \\
        --spawned-at 0 -- serve --data-dir d --port 0
"""

from __future__ import annotations

import argparse
import sys
import time

import tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.monotonic() at spawn")
    parser.add_argument("serve_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_argv = args.serve_argv
    if serve_argv[:1] == ["--"]:
        serve_argv = serve_argv[1:]

    import repro.cli as cli
    imported = time.monotonic()
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    code = cli.main(serve_argv)
    tracer.dump(args.trace_out, import_s=imported - args.spawned_at)
    return code


if __name__ == "__main__":
    sys.exit(main())
