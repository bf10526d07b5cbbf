"""Run a fixed set of chatterkit cases and print one `case exit sha256` line each.

    python3 tools/sweep.py [--repo PATH]

Each case is one process: a CLI call (`python3 -m chatterkit.cli ...`) or
a short library script, run with the program imported from PATH/src
(default: the checkout holding this script). The digest covers every
file the case wrote, its standard output and its standard error, with
the work directory's path replaced by `<work>`, so two sweeps in
different directories compare equal when the program behaves the same.

The cases cover every subcommand, all four classifiers with RFE on and
off, settings that must end in `error: ...`, unreadable inputs and
unwritable outputs, and `Model.to_json` round trips with each model's
scores on rows it never saw, on four corpora:
  - synth: `chatterkit synth --n 30 --seed 0` (10 kHz; itself a case);
  - ingest: perfbench/corpus.py's `ingest_160k` at seed 0 (160 kHz, so
    every matrix command decimates);
  - trees: perfbench/corpus.py's `rfe_trees` at seed 0 (overlapping
    classes, so rf and gb under RFE grow deep trees), with the peak
    settings of the rfe_trees workload;
  - linear: perfbench/corpus.py's `transfer_linear` at seed 0 (two
    separable configs), with svm under RFE and the peak settings of the
    transfer_linear workload;
the last three written by this checkout's copy of that module, so both
sides of a comparison read the same bytes.

To show that a change alters no output, sweep the parent and the change
and compare:

    python3 tools/sweep.py --repo /path/to/parent > parent.txt
    python3 tools/sweep.py > change.txt
    diff parent.txt change.txt

The corpora and outputs go to a fresh temporary directory, removed at
the end.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
KINDS = ("svm", "lr", "rf", "gb")
# One thread per child, as in perfbench/run.py: the sweep shares its host.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Fits each kind on synth_a's matrix, checks that from_json(to_json())
# gives the same text and predictions, and prints the text and the bytes
# of the model's scores on synth_b's matrix, rows it never saw.
TO_JSON = """
import sys
from chatterkit import PipelineConfig, build_matrix, learn, load_manifest
fm, unseen = (build_matrix(load_manifest(sys.argv[1], [config]), PipelineConfig())
              for config in ("synth_a", "synth_b"))
model = learn.fit(sys.argv[2], fm.X, fm.y, seed=0, feature_names=fm.feature_names)
text = model.to_json()
again = learn.Model.from_json(text)
assert again.to_json() == text
assert (again.predict(fm.X) == model.predict(fm.X)).all()
print(text)
print(model.decision_scores(unseen.X).tobytes().hex())
"""


def corpus_cases(tag, manifest, config_a, config_b, record_id, reps, folds):
    """(name, argv) of every subcommand and classifier on one corpus."""
    m = ["--manifest", manifest]
    cases = [
        (f"{tag}/features/{config_a}", ["features", *m, "--config-id", config_a,
                                        "--features-out", "{out}/f.csv"]),
        (f"{tag}/features/all", ["features", *m, "--features-out", "{out}/f.csv"]),
        (f"{tag}/eval/lr/check", ["eval", *m, "--config-id", config_a, "--classifier",
                                  "lr", "--reps", reps, "--check", "--out", "{out}/r.json"]),
    ]
    for kind in KINDS:
        for rfe in ("off", "on"):
            model = ["--classifier", kind, "--rfe", rfe]
            cases += [
                (f"{tag}/eval/{kind}/rfe-{rfe}",
                 ["eval", *m, "--config-id", config_a, *model, "--reps", reps,
                  "--out", "{out}/r.json"]),
                (f"{tag}/cv/{kind}/rfe-{rfe}",
                 ["cv", *m, "--config-id", config_a, *model, "--folds", folds,
                  "--out", "{out}/r.json"]),
                (f"{tag}/transfer/{kind}/rfe-{rfe}",
                 ["transfer", *m, "--source-config", config_a, "--target-config", config_b,
                  *model, "--out", "{out}/r.json"]),
            ]
        cases.append((f"{tag}/rank-report/{kind}",
                      ["rank-report", *m, "--config-id", config_a, "--classifier", kind,
                       "--reps", "2", "--out", "{out}/rank.csv"]))
    for kind in ("fft", "psd", "acf"):
        cases.append((f"{tag}/dump-transform/{kind}",
                      ["dump-transform", *m, "--record-id", record_id, "--kind", kind,
                       "--out", "{out}/t.csv"]))
    return cases


def all_cases(work):
    synth = f"{work}/out/synth/manifest.json"
    ingest = f"{work}/ingest/manifest.json"
    bad = f"{work}/bad"
    cases = corpus_cases("synth", synth, "synth_a", "synth_b", "synth_a_chatter_0", "3", "3")
    cases += corpus_cases("ingest", ingest, "A", "B", "ingest_160k_A_chatter_0", "3", "2")
    lr_a = ["--config-id", "synth_a", "--classifier", "lr", "--reps", "2"]
    cases += [
        ("synth/features/peak-settings",
         ["features", "--manifest", synth, "--n-peaks", "5", "--alpha", "0.05",
          "--mpd-fft", "100", "--mpd-acf", "200", "--mpd-psd", "3",
          "--features-out", "{out}/f.csv"]),
        ("ingest/eval/lr/order-8-cutoff-1000",
         ["eval", "--manifest", ingest, "--config-id", "A", "--classifier", "lr",
          "--filter-order", "8", "--cutoff-hz", "1000", "--out", "{out}/r.json"]),
        ("ingest/eval/lr/order-2",
         ["eval", "--manifest", ingest, "--config-id", "A", "--classifier", "lr",
          "--filter-order", "2", "--out", "{out}/r.json"]),
        ("ingest/dump-transform/psd/order-8-cutoff-1000",
         ["dump-transform", "--manifest", ingest, "--record-id", "ingest_160k_A_chatter_0",
          "--kind", "psd", "--filter-order", "8", "--cutoff-hz", "1000",
          "--out", "{out}/t.csv"]),
        ("ingest/features/rate-20000",
         ["features", "--manifest", ingest, "--target-rate-hz", "20000",
          "--features-out", "{out}/f.csv"]),
    ]
    trees = ["--manifest", f"{work}/trees/manifest.json", "--rfe", "on", "--n-peaks", "5"]
    for kind in ("rf", "gb"):
        cases += [
            (f"trees/eval/{kind}/rfe-on",
             ["eval", *trees, "--classifier", kind, "--reps", "1", "--test-frac", "0.5",
              "--out", "{out}/r.json"]),
            (f"trees/cv/{kind}/rfe-on",
             ["cv", *trees, "--classifier", kind, "--folds", "2", "--out", "{out}/r.json"]),
        ]
    linear = ["--manifest", f"{work}/linear/manifest.json", "--classifier", "svm",
              "--rfe", "on", "--n-peaks", "5"]
    cases += [
        ("linear/transfer/svm/rfe-on",
         ["transfer", *linear, "--source-config", "A", "--target-config", "B",
          "--out", "{out}/r.json"]),
        ("linear/eval/svm/rfe-on",
         ["eval", *linear, "--config-id", "A", "--reps", "3", "--out", "{out}/r.json"]),
    ]
    for kind in KINDS:
        cases.append((f"to-json/{kind}", ["-c", TO_JSON, synth, kind]))

    # Settings, inputs and outputs that must end in one `error: ...` line.
    eval_synth = ["eval", "--manifest", synth, *lr_a, "--out", "{out}/r.json"]
    eval_ingest = ["eval", "--manifest", ingest, "--config-id", "A", "--classifier", "lr",
                   "--reps", "2", "--out", "{out}/r.json"]
    for flag, value in (("--alpha", "2"), ("--n-peaks", "0"), ("--mpd-fft", "-1"),
                        ("--target-rate-hz", "0"), ("--reps", "0"),
                        ("--test-frac", "1.5"), ("--test-frac", "0"),
                        ("--target-rate-hz", "20000")):
        cases.append((f"bad/eval{flag}={value}", eval_synth + [flag, value]))
    # order 480: the design's gain underflows to 0; order 700: it is not
    # finite; order 2000 with an 18 kHz cutoff: computing it overflows
    for flag, value in (("--cutoff-hz", "9000"), ("--filter-order", "3"),
                        ("--target-rate-hz", "3000"), ("--filter-order", "480"),
                        ("--filter-order", "700")):
        cases.append((f"bad/ingest-eval{flag}={value}", eval_ingest + [flag, value]))
    cases.append(("bad/ingest-eval--target-rate-hz=40000--filter-order=2000",
                  eval_ingest + ["--target-rate-hz", "40000", "--filter-order", "2000"]))
    for flag, value in (("--n", "0"), ("--noise-b", "-1"), ("--freq-a", "0"),
                        ("--freq-a", "-800")):
        cases.append((f"bad/synth{flag}={value}",
                      ["synth", "--out-dir", "{out}/corpus", flag, value]))
    cases += [
        ("bad/rank-report--reps=0",
         ["rank-report", "--manifest", synth, *lr_a[:4], "--reps", "0",
          "--out", "{out}/rank.csv"]),
        ("bad/cv--folds=1", ["cv", "--manifest", synth, *lr_a[:4], "--folds", "1",
                             "--out", "{out}/r.json"]),
        ("bad/eval-unknown-config",
         ["eval", "--manifest", synth, "--config-id", "zz", "--out", "{out}/r.json"]),
        ("bad/transfer-unknown-config",
         ["transfer", "--manifest", synth, "--source-config", "synth_a",
          "--target-config", "zz", "--out", "{out}/r.json"]),
        ("bad/dump-transform-unknown-record",
         ["dump-transform", "--manifest", synth, "--record-id", "nope", "--kind", "fft",
          "--out", "{out}/t.csv"]),
        ("bad/missing-manifest",
         ["eval", "--manifest", f"{work}/nope.json", "--out", "{out}/r.json"]),
        ("bad/unknown-flag", ["eval", "--manifest", synth, "--bogus", "1"]),
        ("bad/no-command", []),
        ("bad/manifest-not-utf8",
         ["eval", "--manifest", f"{bad}/not_utf8.json", "--out", "{out}/r.json"]),
        ("bad/signal-not-utf8",
         ["eval", "--manifest", f"{bad}/signal_not_utf8.json", *lr_a,
          "--out", "{out}/r.json"]),
        ("bad/manifest-is-a-directory", ["eval", "--manifest", bad, "--out", "{out}/r.json"]),
        ("bad/out-in-missing-directory",
         ["eval", "--manifest", synth, *lr_a, "--out", "{out}/missing/r.json"]),
        ("bad/features-out-in-missing-directory",
         ["features", "--manifest", synth, "--features-out", "{out}/missing/f.csv"]),
        ("bad/cv-out-in-missing-directory",
         ["cv", "--manifest", synth, *lr_a[:4], "--folds", "2",
          "--out", "{out}/missing/r.json"]),
        ("bad/transfer-out-in-missing-directory",
         ["transfer", "--manifest", synth, "--source-config", "synth_a",
          "--target-config", "synth_b", "--classifier", "lr",
          "--out", "{out}/missing/r.json"]),
        ("bad/rank-report-out-in-missing-directory",
         ["rank-report", "--manifest", synth, *lr_a, "--out", "{out}/missing/rank.csv"]),
        ("bad/dump-transform-out-in-missing-directory",
         ["dump-transform", "--manifest", synth, "--record-id", "synth_a_chatter_0",
          "--kind", "fft", "--out", "{out}/missing/t.csv"]),
        ("bad/out-is-a-directory", ["eval", "--manifest", synth, *lr_a, "--out", "{out}"]),
        # both the manifest and the output are bad: the output is checked first
        ("bad/manifest-not-utf8-and-out-in-missing-directory",
         ["eval", "--manifest", f"{bad}/not_utf8.json", "--out", "{out}/missing/r.json"]),
        # the synth output directory cannot be made
        ("bad/synth-out-dir-is-a-file",
         ["synth", "--out-dir", f"{bad}/signal.csv", "--n", "1"]),
        ("bad/synth-out-dir-under-a-file",
         ["synth", "--out-dir", f"{bad}/signal.csv/sub", "--n", "1"]),
    ]
    for name in BAD_ENTRIES:
        cases.append((f"bad/manifest-{name}",
                      ["eval", "--manifest", f"{bad}/{name}.json", "--config-id", "zz",
                       "--out", "{out}/r.json"]))
    return cases


# name -> edit of entry 1 of the synth manifest
BAD_ENTRIES = {
    "rate-abc": {"sample_rate_hz": "abc"},
    "rate-null": {"sample_rate_hz": None},
    "rate-zero": {"sample_rate_hz": 0},
    "overhang-x": {"overhang_cm": "x"},
    "overhang-null": {"overhang_cm": None},
    "rpm-list": {"rpm": [1]},
    "file-int": {"file": 123},
    "file-directory": {"file": "."},
    "config-id-int": {"config_id": 7},
    "record-id-int": {"record_id": 7},
}


def write_fixtures(work, synth):
    """The ingest_160k, rfe_trees and transfer_linear corpora and the
    unreadable or malformed inputs."""
    sys.path.insert(0, str(HERE / "perfbench"))
    import corpus

    corpus.write(corpus.INGEST_160K, 0, Path(work) / "ingest")
    corpus.write(corpus.RFE_TREES, 0, Path(work) / "trees")
    corpus.write(corpus.TRANSFER_LINEAR, 0, Path(work) / "linear")
    bad = Path(work) / "bad"
    bad.mkdir()
    (bad / "not_utf8.json").write_bytes(b"[\xff]")
    entries = json.loads(Path(synth).read_text(encoding="utf-8"))
    for e in entries:
        e["file"] = str(Path(synth).parent / e["file"])
    for name, edit in BAD_ENTRIES.items():
        edited = [dict(e) for e in entries]
        edited[1].update(edit)
        (bad / f"{name}.json").write_text(json.dumps(edited), encoding="utf-8")
    (bad / "signal.csv").write_bytes(b"0.5\n\xff\n")
    edited = [dict(e) for e in entries]
    edited[0]["file"] = str(bad / "signal.csv")
    (bad / "signal_not_utf8.json").write_text(json.dumps(edited), encoding="utf-8")


def digest(out_dir, stdout, stderr, work):
    h = hashlib.sha256()
    for path in sorted(p for p in Path(out_dir).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0" + path.read_bytes() + b"\0")
    for stream in (stdout, stderr):
        h.update(stream.replace(work.encode(), b"<work>") + b"\0")
    return h.hexdigest()


def run(name, argv, work, env):
    out = Path(work) / "out" / name.replace("/", "_")
    out.mkdir(parents=True)
    argv = [a.replace("{out}", str(out)) for a in argv]
    cmd = [sys.executable] + (argv if argv[:1] == ["-c"] else ["-m", "chatterkit.cli", *argv])
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=600)
    print(f"{name} {proc.returncode} {digest(out, proc.stdout, proc.stderr, work)}",
          flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=str(HERE),
                        help="checkout whose src/ is run (default: this one)")
    args = parser.parse_args()
    work = str(Path(tempfile.mkdtemp(prefix="chatterkit-sweep-")).resolve())
    env = dict(os.environ, PYTHONPATH=str(Path(args.repo).resolve() / "src"),
               **{var: "1" for var in THREAD_VARS})
    try:
        # The synth case writes the corpus the other cases read.
        run("synth", ["synth", "--out-dir", "{out}", "--n", "30", "--seed", "0"], work, env)
        write_fixtures(work, f"{work}/out/synth/manifest.json")
        for name, argv in all_cases(work):
            run(name, argv, work, env)
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    main()
