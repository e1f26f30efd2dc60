"""Record the reference answers the benchmark compares every job against.

    python3 perfbench/record_reference.py [--workload NAME ...]

Runs every case in each workload's pool once, requires each answer to pass
the benchmark's own output check, and writes centers and ``cost_on_full``
to ``perfbench/reference.json`` (other workloads' entries are kept). Record
only from a commit whose answers are trusted: a later change must reproduce
these answers exactly, so a change that alters them is a change of results.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main(argv=None) -> int:
    run.import_package()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    refs = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        cases = [c for pool in wl.case_pool().values() for c in pool]
        workdir = run.OUT / f"record-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        entries = {}
        try:
            ctx = wl.setup(cases, workdir)
            for case in cases:
                ans = wl.answer(ctx, case, wl.run(ctx, case))
                problems = run.answer_problems(ctx, case, ans)
                if problems:
                    print(f"{name} {case.key}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                entries[case.key] = {"centers": [int(c) for c in ans.centers], "cost": ans.cost}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        refs[name] = entries
        print(f"{name}: recorded {len(entries)} cases")
    run.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
