"""Record the golden output hashes in ``golden.json``.

    python3 perfbench/record_golden.py

Run this only at a commit whose outputs are the reference, before a change
that must keep them byte-identical: it runs one child per workload and seed
0..SEEDS-1, requires exit 0 and passing content checks, and stores the
sha256 of every output file. If any run fails, ``golden.json`` is kept.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import WORK, Runner
from checks import GOLDEN_PATH
from workloads import WORKLOADS

SEEDS = 40


def main() -> int:
    golden = {}
    work = WORK / f"golden-{os.getpid()}"
    failures = 0
    try:
        for name, workload in WORKLOADS.items():
            table = golden[name] = {}
            for seed in range(SEEDS):
                runner = Runner(workload, seed, work / f"{name}-{seed}")
                runner.golden = None
                child = runner.run(trace=False)
                if not child.ok:
                    failures += 1
                    print(f"{name} seed {seed}: FAILED {child.problems}", file=sys.stderr)
                    continue
                table[str(seed)] = child.hashes
                print(f"{name} seed {seed}: {child.seconds:.2f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if failures:
        print(f"{failures} runs failed; golden.json left unchanged", file=sys.stderr)
        return 1
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
