"""Record the reference answers of every pool job of every workload.

    python3 perfbench/record.py

Runs each job once on the code in ``src/`` and writes ``reference.json``:
the decided answer of each job (null when it was undecided), plus the
time in microseconds of each pair and realizability query, which the
build functions use to stratify their seeded picks: every seed then draws
the same mix of cheap and expensive jobs.  A job whose certificate fails stops the recording.  Re-record only
in a change that alters the benchmark itself.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from run import REFERENCE, SRC, fresh_import


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    lib = fresh_import()
    answers, cost = {}, {}
    for name, build in workloads.WORKLOADS.items():
        for job in build(lib, 0, None, full=True):
            start = perf_counter()
            result = job.run()
            elapsed = perf_counter() - start
            problem = job.certify(result) if job.certify else None
            if problem:
                print(f"{job.key}: {problem}", file=sys.stderr)
                return 1
            decided, answer = job.answer(result)
            answers[job.key] = answer if decided else None
            if job.key.startswith(("pair|", "realizable|")):
                cost[job.key] = round(elapsed * 1e6)
        print(f"{name}: {len(answers)} answers recorded so far")
    REFERENCE.write_text(json.dumps({"answers": answers, "cost": cost}, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
