"""Shared exit-code taxonomy for the command lines.

``repro check`` reports the outcome of any analyzer selection with the
same four exit codes (and ``campaign``, ``serve`` and ``loadgen`` reuse
them), so CI scripts and the dogfood gates can interpret any run
without per-tool special cases:

* :data:`EXIT_CLEAN` (0) — the run completed and found nothing
  unsuppressed (or performed a maintenance action such as
  ``--update-spec``);
* :data:`EXIT_FINDINGS` (1) — the run completed and at least one
  unsuppressed violation remains;
* :data:`EXIT_USAGE` (2) — the invocation was unusable (unknown flag,
  nonexistent path, no Python files found);
* :data:`EXIT_CRASH` (3) — the analyzer itself failed.  A crash must
  never masquerade as "findings" or as "clean": CI treats 1 as a
  reviewable report and 0 as a green gate, and both readings would be
  wrong for a traceback.

:func:`run_guarded` is the one place the crash mapping happens; every
command routes its command function through it.
"""

from __future__ import annotations

import sys
import traceback

__all__ = [
    "EXIT_CLEAN",
    "EXIT_CRASH",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "run_guarded",
]

#: The run completed; nothing unsuppressed was found.
EXIT_CLEAN = 0
#: The run completed; at least one unsuppressed violation was reported.
EXIT_FINDINGS = 1
#: The invocation could not be executed (bad arguments, no input files).
EXIT_USAGE = 2
#: The analyzer itself crashed; the traceback goes to stderr.
EXIT_CRASH = 3


def run_guarded(command, args, out=None) -> int:
    """Run ``command(args, out=out)``, mapping analyzer crashes to 3.

    ``SystemExit`` (argparse usage errors already carry exit code 2) and
    ``KeyboardInterrupt`` propagate untouched; any other exception is an
    analyzer bug, reported with its traceback on stderr and mapped to
    :data:`EXIT_CRASH` so automation never mistakes it for a finding
    report or a clean pass.
    """
    try:
        return command(args, out=out)
    except (SystemExit, KeyboardInterrupt):
        raise
    except Exception:  # repro: disable=R004 -- crash boundary: the failure is fully reported (traceback on stderr) and encoded in the EXIT_CRASH return value
        traceback.print_exc(file=sys.stderr)
        print("internal error: the analyzer crashed (exit code "
              f"{EXIT_CRASH}); the traceback above is a bug report",
              file=sys.stderr)
        return EXIT_CRASH
