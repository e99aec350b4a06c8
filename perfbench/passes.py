"""One workload pass: the workload's ``maxplus`` CLI calls, in-process.

Run as a script, it makes one pass in a fresh interpreter and prints the
process's peak resident memory as the last line of its output, which is
how the benchmark measures ``peak_rss_mb``::

    python3 perfbench/passes.py IN_DIR OUT_DIR SUBCOMMAND:SCENARIO [...]
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def import_cli():
    """Import ``maxplus.cli`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import maxplus.cli

    where = Path(maxplus.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"maxplus imported from {where}, not from {src}")
    return maxplus.cli


def run_pass(cli, calls, in_dir, out_dir):
    """Run the CLI calls of one pass; return (exit codes, captured stdout).

    ``cli.main`` is looked up on every call so that a tracer's wrapper,
    when installed, is the one that runs.
    """
    buf = io.StringIO()
    codes = []
    with contextlib.redirect_stdout(buf):
        for sub, scenario in calls:
            argv = [sub, "--config", str(Path(in_dir) / scenario), "--out-dir", str(out_dir)]
            codes.append(cli.main(argv))
    return codes, buf.getvalue()


def peak_rss_mb():
    """Peak resident memory of this process's own address space, in MB.

    ``getrusage`` is not used: when the parent starts this process with
    vfork, its ``ru_maxrss`` also counts the parent's peak before exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0  # the field is in KiB
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    in_dir, out_dir, *pairs = argv
    calls = [tuple(p.split(":", 1)) for p in pairs]
    cli = import_cli()
    codes, stdout = run_pass(cli, calls, in_dir, out_dir)
    print(json.dumps({"codes": codes, "stdout": stdout, "peak_rss_mb": peak_rss_mb()}))


if __name__ == "__main__":
    main(sys.argv[1:])
