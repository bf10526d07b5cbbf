"""The benchmark's own checks pass on every workload.

`perfbench/run.py` writes a workload's corpus, makes one pass through
`perfbench/probe.py --mode check` (every layer's output against the
generator and the method's properties) and then times whole CLI passes,
comparing each report byte for byte with the checked pass. A run with
`--seconds 0` makes the checked pass and one timed round. Its last line
of standard output is one JSON object, whose `correct` and `failed`
fields say whether every check held.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ("ingest_160k", "rfe_trees", "transfer_linear"))
def test_benchmark_workload_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0, proc.stderr[-2000:]
