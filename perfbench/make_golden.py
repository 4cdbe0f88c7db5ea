"""Write golden.json: sha256 digests of the outputs of every pinned invocation.

    python3 perfbench/make_golden.py

Pinned are the trace and summary of each bundled scenario under each
controller, the ``dump-fis`` output, and the ``measured_compare`` outputs
for the default seed; standard output is pinned too.  run.py checks every
invocation against these digests.  Rewrite them only in a change that
alters outputs on purpose, and list the changed lines there.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="golden-", dir=run.WORK_ROOT))
    try:
        pinned = [run.DUMP_FIS]
        for name in run.WORKLOADS:
            workload = run.make_workload(name, run.DEFAULT_SEED, work / "inputs")
            pinned += workload.invocations
        golden = {}
        for inv in pinned:
            out_dir = work / "out"
            out_dir.mkdir(exist_ok=True)
            _, status, stdout, stderr, _ = run.spawn_cli(inv, out_dir)
            blobs = run.read_outputs(inv, out_dir, stdout)
            if status != 0 or stderr or len(blobs) != len(inv.outputs) + 1:
                print(f"error: {inv.label} failed: {stderr.decode()}", file=sys.stderr)
                return 1
            golden[inv.label] = {name: run.sha256(data) for name, data in blobs.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(golden, indent=2, sort_keys=True) + "\n"
    run.GOLDEN_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {len(golden)} pinned invocations to {run.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
