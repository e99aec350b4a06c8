"""Share of Monte Carlo cells outside 3 standard errors, over many seeds.

Runs ``maxplus merton`` in-process on a tail-rate scenario once for each
seed 0, ..., N − 1 (the subcommand's ``--seed`` override) and reads the
CSV it writes.  A cell is conclusive when it has a ``mc_value``, and
outside when |mc_value − exact_value| > 3·mc_se.  For each seed the
outside share is outside / conclusive; the tool prints the mean and the
maximum of those shares and the number of seeds above 2%, the bound that
the test suite holds the scenario's own seed to.  A seed with no
conclusive cell counts as a share of +inf.

Run from the root of a checkout::

    PYTHONPATH=src python tools/mc_coverage.py --seeds 100

On the checked-in scenario, 100 seeds take about a second on a 2-core
x86-64 host.
"""

import argparse
import contextlib
import io
import math
import sys
import tempfile
from pathlib import Path

from maxplus.cli import main as maxplus_main

LIMIT = 0.02


def outside_share(csv_text):
    """outside / conclusive over the rows of one tail-rate CSV."""
    conclusive = outside = 0
    for line in csv_text.splitlines()[1:]:
        _, _, exact, mc, se, _, _ = line.split(",")
        if mc:
            conclusive += 1
            outside += abs(float(mc) - float(exact)) > 3.0 * float(se)
    return outside / conclusive if conclusive else math.inf


def shares(config, seeds):
    """The outside share of each seed's run, in seed order."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(seeds):
            argv = ["merton", "--config", str(config), "--out-dir", tmp, "--seed", str(seed)]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = maxplus_main(argv)
            if rc != 0:
                sys.exit(f"seed {seed}: maxplus merton exited {rc}")
            (csv_path,) = Path(tmp).glob("*.csv")
            out.append(outside_share(csv_path.read_text()))
            csv_path.unlink()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default="scenarios/merton_tailrate.json")
    parser.add_argument("--seeds", type=int, default=100)
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    got = shares(args.config, args.seeds)
    worst = max(range(len(got)), key=got.__getitem__)
    print(
        f"{args.config}, seeds 0-{len(got) - 1}: outside 3 SE "
        f"mean {sum(got) / len(got):.2%}, max {got[worst]:.2%} (seed {worst}), "
        f"{sum(s > LIMIT for s in got)} seeds above {LIMIT:.0%}"
    )


if __name__ == "__main__":
    main()
