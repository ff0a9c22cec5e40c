"""Compare two benchmark records written by ``run.py --record``:

    python3 perfbench/compare.py base.json head.json

Prints each metric of both records and the relative change.  Records of
different workloads, trace modes or kernel paths (numba vs NumPy) are not
comparable: the script says so and exits with status 1.
"""

import json
import sys


def comparable(base: dict, head: dict) -> list[str]:
    """Reasons the two records cannot be compared; empty when they can."""
    reasons = []
    for key in ("workload", "kernel_path"):
        if base["provenance"][key] != head["provenance"][key]:
            reasons.append(f"{key} differs: {base['provenance'][key]} vs {head['provenance'][key]}")
    if base["trace"] != head["trace"]:
        reasons.append("one record is traced and the other is not")
    return reasons


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (json.load(open(path)) for path in argv)
    reasons = comparable(base, head)
    if reasons:
        print("NOT COMPARABLE: " + "; ".join(reasons))
        return 1
    for name, old in base["metrics"].items():
        new = head["metrics"].get(name)
        if new is None:
            print(f"{name:<30} {old:>12.6g} {'missing':>12}")
            continue
        change = f"{(new - old) / old:+.1%}" if old else "n/a"
        print(f"{name:<30} {old:>12.6g} {new:>12.6g} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
