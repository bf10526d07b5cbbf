"""scipy is imported only by a command that decimates.

Each case runs in a fresh interpreter and reports which scipy modules it
ended with; start-up time itself is not asserted, since a wall-clock
bound would depend on the host.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chatterkit
from chatterkit import dataset, synthgen

SRC = str(Path(chatterkit.__file__).parents[1])

# Each child prints the scipy modules it loaded as its last line of stdout;
# CLI runs the command line in process first.
REPORT = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
CLI = ("import json, sys; from chatterkit import cli; rc = cli.main(sys.argv[1:]); "
       + REPORT + "; sys.exit(rc)")
IMPORT = "import json, sys, {module}; " + REPORT


def _scipy_modules(code, *argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def corpus_10k(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus10k")
    assert _scipy_modules(CLI, "synth", "--out-dir", out, "--n", "3", "--seed", "0") == []
    return out / "manifest.json"


@pytest.mark.parametrize("module", ["chatterkit", "chatterkit.cli"])
def test_import_leaves_scipy_out(module):
    assert _scipy_modules(IMPORT.format(module=module)) == []


def test_version_leaves_scipy_out():
    assert _scipy_modules(CLI, "--version") == []


def test_commands_at_working_rate_leave_scipy_out(corpus_10k, tmp_path):
    record_id = json.loads(corpus_10k.read_text())[0]["record_id"]
    m = ["--manifest", corpus_10k]
    assert _scipy_modules(CLI, "eval", *m, "--config-id", "synth_a", "--classifier",
                          "lr", "--reps", "2", "--out", tmp_path / "r.json") == []
    assert _scipy_modules(CLI, "dump-transform", *m, "--record-id", record_id,
                          "--kind", "psd", "--out", tmp_path / "psd.csv") == []


def test_decimating_command_imports_scipy_signal(tmp_path):
    spec_a = synthgen.SynthSpec(n_per_class=3, sample_rate_hz=20000.0, seed=1,
                                config_id="fast_a")
    spec_b = synthgen.SynthSpec(n_per_class=3, sample_rate_hz=20000.0, seed=2,
                                chatter_freq_hz=1600.0, config_id="fast_b",
                                overhang_cm=11.43)
    manifest = dataset.write_corpus(tmp_path / "corpus", synthgen.make_dataset(spec_a, spec_b))
    loaded = _scipy_modules(CLI, "eval", "--manifest", manifest, "--config-id", "fast_a",
                            "--classifier", "lr", "--reps", "2", "--out", tmp_path / "r.json")
    assert "scipy.signal" in loaded
