"""Regenerate ``perfbench/expected.json`` from the program at hand.

    PYTHONPATH=src python3 perfbench/make_expected.py

The benchmark checks every answer against that file, so run this only
when answers are meant to change, and review the diff.  Serve answers
come from the same app-tier design through the CLI.  Every answer that
a committed golden fixture also pins is cross-checked against it.
"""

from __future__ import annotations

import io
import json
import os
import sys

import workloads

GOLDEN_DIR = os.path.join(os.path.dirname(workloads.HERE), "tests",
                          "golden")


def requests():
    """``(key, repro argv)`` of every request of the three cycles."""
    for workload in ("design", "job"):
        for key in workloads.cycle_keys(workload) + [
                workloads.warmup_key(workload)]:
            yield key, workloads.cli_argv(key)
    for key in workloads.cycle_keys("serve") + [
            workloads.warmup_key("serve")]:
        yield key, workloads.design_argv(int(workloads.serve_load(key)),
                                         "%gm" % workloads
                                         .SERVE_DOWNTIME_MINUTES,
                                         app_tier=True)


def golden_mismatches(answers) -> list:
    """Keys whose answer disagrees with the golden fixture pinning it."""
    bad = []
    for key, name in sorted(workloads.GOLDEN.items()):
        with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
            golden = json.load(fh)
        reason = workloads.check_answer(workloads.summarize(golden),
                                        answers[key])
        if reason is not None:
            bad.append("%s vs %s: %s" % (key, name, reason))
    return bad


def main() -> int:
    import repro.cli as cli
    answers = {}
    for key, argv in requests():
        out = io.StringIO()
        code = cli.main(argv, out=out)
        if code != 0:
            print("%s: repro %s exited %d: %s"
                  % (key, " ".join(argv), code, out.getvalue()),
                  file=sys.stderr)
            return 1
        answers[key] = workloads.summarize(json.loads(out.getvalue()))
    bad = golden_mismatches(answers)
    for line in bad:
        print("golden mismatch: %s" % line, file=sys.stderr)
    if bad:
        return 1
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"answers": answers}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %d answers to %s" % (len(answers),
                                      workloads.EXPECTED_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
