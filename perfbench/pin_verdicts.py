"""Regenerate pinned_verdicts.json: the verdicts of the default seed's first batches.

    python3 perfbench/pin_verdicts.py

Run from the root of a checkout.  Each batch goes through the CLI exactly as
run.py sends it, and is pinned only if it passes every other check.  run.py
compares the verdicts and oracle values of these problems whenever it runs
with the default seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import outcheck
import problemgen
from run import DEFAULT_SEED, HERE, cli_argv

PINNED_BATCHES = 4


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    sys.path.insert(0, str(root / "src"))
    table = {}
    for name, workload in sorted(problemgen.WORKLOADS.items()):
        pins = {}
        for index in range(PINNED_BATCHES):
            batch = problemgen.make_batch(workload, DEFAULT_SEED, index)
            text = batch.text
            proc = subprocess.run(
                [sys.executable, "-m", "schubvanish", *cli_argv(Path("-"), workload)],
                input=text, capture_output=True, text=True, cwd=root, env=env, check=False,
            )
            result = outcheck.check_batch(workload, batch, proc.stdout, proc.returncode)
            if result.failed or result.messages:
                print("\n".join(result.messages), file=sys.stderr)
                return 1
            lines = outcheck.problem_lines(text)
            for raw in proc.stdout.splitlines():
                record = json.loads(raw)
                pins[lines[record["id"]]] = {
                    "verdicts": record["verdicts"],
                    "oracle": record.get("oracle"),
                }
        table[name] = pins
        print(f"{name}: {len(pins)} problems pinned")
    (HERE / "pinned_verdicts.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
