"""One fresh process of the ``design`` or ``job`` workload.

Imports ``repro.cli``, answers the workload's warm-up request, and with
``--measure`` runs the closed request loop for ``--seconds``: one
sequential client calling ``repro.cli.main(argv)`` in process, with
the same argument lists a user would pass to ``python -m repro``.

It writes one JSON line when the warm-up answer is in (``ready``) and,
with ``--measure``, one when the window is over (``done``).  With
``--trace-out`` the layer wrappers are installed after the import and
the spans are written to that file at exit.

    python3 perfbench/cli_worker.py design --seed 1 --seconds 20 \\
        --spawned-at 0 --measure
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import sys
import time

import tracing
import workloads

_dumps = json.dumps   # bound before the wrappers go in


def emit(record: dict) -> None:
    sys.stdout.write(_dumps(record) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=("design", "job"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.monotonic() at spawn")
    parser.add_argument("--measure", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    import repro.cli as cli
    imported = time.monotonic()
    expected = workloads.load_expected()
    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracer.install(tracing.TARGETS)

    def run(op: str, cycle: int, key: str) -> list:
        out = io.StringIO()
        start = time.monotonic()
        error = None
        scope = (tracer.operation(op) if tracer is not None
                 else contextlib.nullcontext())
        try:
            with scope:
                code = cli.main(workloads.cli_argv(key), out=out)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:   # noqa: BLE001 - counted, not fatal
            code, error = -1, "%s: %s" % (type(exc).__name__, exc)
        end = time.monotonic()
        reason = error or workloads.check_cli_answer(
            expected.get(key), code, out.getvalue())
        return [op, cycle, key, start, end, reason]

    warmup = run("warmup", -1, workloads.warmup_key(args.workload))
    emit({"event": "ready", "warmup": warmup,
          "import_s": imported - args.spawned_at})
    if not args.measure:
        return 0

    gc_before = [entry["collections"] for entry in gc.get_stats()]
    ops = []
    deadline = time.monotonic() + args.seconds
    unseen = set(workloads.cycle_keys(args.workload))
    for index, (cycle, key) in enumerate(
            workloads.schedule(args.workload, args.seed)):
        # A window too short for one whole cycle is stretched until
        # every request type has run once.
        if time.monotonic() >= deadline and not unseen:
            break
        ops.append(run("op-%d" % index, cycle, key))
        unseen.discard(key)
    gc_after = [entry["collections"] for entry in gc.get_stats()]
    if tracer is not None:
        tracer.dump(args.trace_out, import_s=imported - args.spawned_at)
    emit({"event": "done", "ops": ops,
          "gc_collections": [after - before for before, after
                             in zip(gc_before, gc_after)]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
