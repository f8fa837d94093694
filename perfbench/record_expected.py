#!/usr/bin/env python3
"""Record the expected optimum of every corpus instance of the proof workloads.

    python3 perfbench/record_expected.py --seeds 0-40

Each instance is solved with the workload's own configuration and with the
``core`` reduction variant; both must be proven optimal and agree, or the
script stops.  Each seed's sizes merge into ``expected.json`` as soon as
they are recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from checks import EXPECTED, core_size  # noqa: E402
from collect import parse_seeds  # noqa: E402
from twopack import solve_m2s  # noqa: E402
from workloads import WORKLOADS, build_corpus  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True)
    args = parser.parse_args()
    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for w in WORKLOADS.values():
        if not w.proof:
            continue
        for seed in parse_seeds(args.seeds):
            sizes = []
            for j, g in enumerate(build_corpus(w, seed).graphs):
                sol = solve_m2s(g, w.config)
                core = core_size(w, g)
                if not sol.proven_optimal or core != sol.size:
                    raise SystemExit(
                        f"{w.name} seed {seed} instance {j}: size {sol.size} "
                        f"(proven={sol.proven_optimal}), core variant {core}"
                    )
                sizes.append(sol.size)
            table.setdefault(w.name, {})[str(seed)] = sizes
            EXPECTED.write_text(json.dumps(table, sort_keys=True) + "\n")
            print(f"{w.name} seed {seed}: {len(sizes)} instances, sum {sum(sizes)}", flush=True)


if __name__ == "__main__":
    main()
