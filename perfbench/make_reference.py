"""Write the reference outputs the benchmark checks runs of seed 0 against.

    python3 perfbench/make_reference.py

Run from the root of a checkout. It writes reference/<workload>.json: the
sha256 digest of every shipped episode's trace.csv and belief.jsonl, and
the chosen action and action totals of the first decisions of
decide_fresh and of every belief_stream stream. Rewrite them only for a
change that is meant to alter the package's outputs, and say so.
"""

from __future__ import annotations

import json
import math
import sys

import workloads
from run import ROOT


def main() -> int:
    pkg = workloads.import_package(ROOT)
    seed = workloads.REFERENCE_SEED
    limits = {
        "closed_loop": lambda bench: len(bench.order),
        "decide_fresh": lambda bench: workloads.DECIDE_CHECKED,
        "belief_stream": lambda bench: len(bench.streams) * bench.checkpoint,
    }
    keys = {"closed_loop": "digests", "decide_fresh": "decisions", "belief_stream": "streams"}
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        bench = cls(pkg, seed, ROOT)
        run = bench.run(math.inf, limit=limits[name](bench))
        if run.failed:
            print("\n".join(run.notes), file=sys.stderr)
            return 1
        path = workloads.REFERENCE_DIR / f"{name}.json"
        document = {"seed": seed, keys[name]: run.record}
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"{path.relative_to(ROOT)}: {run.items} items")
    return 0


if __name__ == "__main__":
    sys.exit(main())
