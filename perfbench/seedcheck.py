"""Seed check: virtual-time metrics at a second seed stay within a tenth.

    python3 perfbench/seedcheck.py --seeds 1 2

Runs one trial of every workload at each of the two seeds and compares
each virtual-time metric of the second seed with the first. A claim
made on one seed can then be re-checked on a seed its author did not
use. Exits 1 when a metric moves by more than a tenth.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from run import add_source

#: largest relative change of a virtual metric between the two seeds
_TOLERANCE = 0.1


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, required=True)
    args = parser.parse_args(argv)
    if not add_source():
        return 2
    from trial import VIRTUAL_METRICS, run_trial
    from workloads import WORKLOADS

    first, second = args.seeds
    worst = 0.0
    for workload in WORKLOADS.values():
        a = run_trial(workload, first).virtual
        b = run_trial(workload, second).virtual
        print(f"{workload.name}: seed {first} vs seed {second}")
        for name in VIRTUAL_METRICS:
            change = abs(b[name] - a[name]) / a[name] if a[name] else abs(b[name])
            worst = max(worst, change)
            print(f"  {name:22s} {a[name]:12.5g} {b[name]:12.5g} {change:8.2%}")
    ok = worst <= _TOLERANCE
    print(f"largest change {worst:.2%}: {'within' if ok else 'beyond'} {_TOLERANCE:.0%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
