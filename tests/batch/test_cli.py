"""Wavefront solving is not an option: the retired flags are rejected.

Every search solves its candidates in stacked wavefronts, and
search-time dominance pruning is gone, so ``--batch``/``--no-batch``
and ``--prune-dominated``/``--no-prune`` no longer exist; argparse
rejects them (exit 2) before any search runs.
"""

import io

import pytest

from repro.cli import main

COMMANDS = {
    "design": ["design", "--paper-ecommerce", "--app-tier-only",
               "--load", "1000", "--downtime", "100m"],
    "profile": ["profile", "--paper-ecommerce", "--app-tier-only",
                "--load", "1000", "--downtime", "100m"],
    "frontier": ["frontier", "--paper-ecommerce", "--tier",
                 "application", "--load", "1000"],
    "analyze": ["analyze", "--paper-ecommerce", "--app-tier-only",
                "--load", "1000", "--downtime", "100m"],
}


@pytest.mark.parametrize("flag", ["--batch", "--no-batch",
                                  "--prune-dominated", "--no-prune"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_retired_flag_is_a_usage_error(command, flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(COMMANDS[command] + [flag], out=io.StringIO())
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err

