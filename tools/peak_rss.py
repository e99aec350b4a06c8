"""Peak resident memory of ``maxplus`` CLI calls, call by call.

Runs the CLI calls in this one fresh interpreter, in order, and prints
the process's peak resident memory (VmHWM of ``/proc/self/status``)
after ``maxplus.cli`` is imported and after each call, with each call's
wall time and exit code.  The benchmark's ``peak_rss_mb`` is one number
for a whole pass; this breakdown shows which call sets it.  The peak
only rises, so a call that reads no higher than the line before it did
not set it.  The import, the calls and the reading of VmHWM are the
benchmark's own (``perfbench/passes.py``).  Linux only.

Run from the root of a checkout::

    python tools/peak_rss.py covering:scenarios/covering_identity.json

Each argument is SUBCOMMAND:SCENARIO; the artifacts go to a temporary
directory, and the CLI's own output is not shown.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from passes import import_cli, peak_rss_mb, run_pass  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("calls", nargs="+", metavar="SUBCOMMAND:SCENARIO")
    args = parser.parse_args(argv)
    calls = [tuple(c.split(":", 1)) for c in args.calls]
    if any(len(c) != 2 for c in calls):
        parser.error("each call is SUBCOMMAND:SCENARIO")

    cli = import_cli()
    print(f"{'after':<48} {'VmHWM MB':>9} {'wall s':>8} {'exit':>4}")
    print(f"{'import maxplus.cli':<48} {peak_rss_mb():>9.2f}")
    with tempfile.TemporaryDirectory() as out_dir:
        for call in calls:
            t0 = time.perf_counter()
            (rc,), _ = run_pass(cli, [call], ".", out_dir)
            wall = time.perf_counter() - t0
            print(f"{' '.join(call):<48} {peak_rss_mb():>9.2f} {wall:>8.3f} {rc:>4}")


if __name__ == "__main__":
    main()
