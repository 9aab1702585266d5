"""Record the SHA-256 of every output that ``run.py`` checks against.

    python3 perfbench/record_digests.py --seeds 0-15,1009

For each workload and seed it runs one untraced repetition and stores its
output digests in ``digests.json``, but only if every op passed the oracle;
otherwise it prints the failures and exits 1 without writing.  Re-record only
in a change that means to alter the program's output bytes, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import DIGESTS, WORK, judge
from workloads import WORKLOADS


def parse_seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", required=True, help="e.g. 0-15,1009")
    args = parser.parse_args()

    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    bad = 0
    for name in sorted(WORKLOADS):
        for seed in parse_seeds(args.seeds):
            work = WORK / name
            shutil.rmtree(work, ignore_errors=True)
            wl = WORKLOADS[name](seed, work)
            rep = wl.rep(False, f"{name}:{seed}:record")
            failed = judge([rep], wl, None)
            for _, op, problems in failed:
                print(f"{name} seed {seed} {op}: {'; '.join(problems)}", file=sys.stderr)
            bad += len(failed)
            recorded.setdefault(name, {})[str(seed)] = dict(sorted({op.output: op.digest for op in rep.ops}.items()))
            print(f"{name} seed {seed}: {len(rep.ops)} ops, {len(failed)} failed")
    if bad:
        print("not written: some outputs failed their checks", file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
