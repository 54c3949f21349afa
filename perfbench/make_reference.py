"""Write the per-seed reference quality figures to ``perfbench/reference.json``.

Run from the root of a checkout that holds ``src/driftcast``::

    python3 perfbench/make_reference.py --workload detect --seeds 0-31

For each seed this generates the workload's inputs as ``run.py`` does,
runs one untraced pass, and stores every command's quality figures
(``Workload.scores``) under ``<workload>/<seed>``, keeping the entries
of other workloads and seeds. ``run.py`` then fails a command whose
figures are worse than these by more than its stated tolerance.
Regenerate the entries of a workload when a change is meant to alter its
output quality, and say why in the change.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import sys

import run


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def store(workload: str, seed: int, scores: dict) -> None:
    """Merge one entry into the reference file, under a lock so that runs
    for different workloads can go in parallel."""
    run.WORK.mkdir(exist_ok=True)
    with open(run.WORK / "reference.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        table = json.loads(run.REFERENCE.read_text(encoding="utf-8")) \
            if run.REFERENCE.exists() else {}
        table.setdefault(workload, {})[str(seed)] = scores
        # one line per (workload, seed), so that a diff shows which seeds moved
        blocks = []
        for name in sorted(table):
            rows = [f'  "{s}": {json.dumps(table[name][s], sort_keys=True)}'
                    for s in sorted(table[name], key=int)]
            blocks.append(f' "{name}": {{\n' + ",\n".join(rows) + "\n }")
        run.REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(run.WORKLOADS), required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="N or N-M")
    args = parser.parse_args(argv)
    if max(args.seeds) >= run.REFERENCE_SEEDS:
        parser.error(f"run.py only runs input seeds 0-{run.REFERENCE_SEEDS - 1}")

    for seed in args.seeds:
        workload = run.WORKLOADS[args.workload]()
        scratch = run.WORK / f"reference-{workload.name}-seed{seed}-{os.getpid()}"
        inputs = scratch / "inputs"
        shutil.rmtree(scratch, ignore_errors=True)
        inputs.mkdir(parents=True)
        try:
            for setup_argv in workload.setup(seed, inputs):
                rec = run.run_child(setup_argv, inputs, "0", inputs / "record.json")
                if rec["returncode"] != 0:
                    raise RuntimeError(f"set-up command failed: {rec['stderr']}")
            result = run.run_pass(workload, seed, inputs, scratch / "pass0", False)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if not result["scores"]:
            print(f"seed {seed}: a command failed, no reference written: {result['failed']}",
                  file=sys.stderr)
            return 1
        print(f"{workload.name} seed {seed}: {json.dumps(result['scores'])}")
        if result["failed"]:
            # shown, not fixed: the reference records what the code does
            print(f"  failed checks (against the reference as it stood): {result['failed']}")
        store(workload.name, seed, result["scores"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
