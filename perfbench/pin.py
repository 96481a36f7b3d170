"""Regenerate ``reference.json``, the pinned correctness reference.

Run from the repository root, on a commit whose behaviour is known to
be right::

    python3 perfbench/pin.py

For every workload and every input seed it records each run's trace
digest and metrics fingerprint (and, for ``campaign``, the admission
split), from a cold pass whose warm passes must agree with it.  Only
re-pin when a change is meant to alter simulated behaviour.
"""

import json
import sys

import run


def main() -> int:
    run.load_repro()
    reference: dict[str, dict[str, dict]] = {}
    for workload in run.WORKLOADS.values():
        entries = reference.setdefault(workload.name, {})
        for seed in range(run.PINNED_SEEDS):
            it = run.run_iteration(workload, workload.inputs(seed))
            entry = run.pin(it)
            _attempted, failed, problems = run.check(it, entry)
            if failed or len(entry["runs"]) != len(it.cold.results):
                sys.stderr.write("\n".join(problems) + "\n")
                raise SystemExit(f"{workload.name} seed {seed}: warm passes "
                                 "disagree with cold, or a run raised")
            entries[str(seed)] = entry
            sys.stderr.write(f"{workload.name} seed {seed}: "
                             f"{len(entry['runs'])} runs pinned\n")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
