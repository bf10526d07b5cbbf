import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chatterkit
from chatterkit import cli, dataset, featurize, preprocess, synthgen
from chatterkit.cli import main
from chatterkit.dataset import load_manifest, split_by_config
from chatterkit.errors import PeakShortfall
from chatterkit.featurize import PipelineConfig, build_matrix
from chatterkit.transform import Kind


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main(["synth", "--out-dir", str(out), "--n", "4", "--seed", "11"])
    assert rc == 0
    return out / "manifest.json"


@pytest.fixture(scope="module")
def corpus_20k(tmp_path_factory):
    """Two configs of 2+2 records captured at 20 kHz, twice the working rate."""
    spec_a = synthgen.SynthSpec(n_per_class=2, sample_rate_hz=20000.0, seed=1,
                                config_id="fast_a")
    spec_b = synthgen.SynthSpec(n_per_class=2, sample_rate_hz=20000.0, seed=2,
                                chatter_freq_hz=1600.0, config_id="fast_b",
                                overhang_cm=11.43)
    return dataset.write_corpus(tmp_path_factory.mktemp("corpus20k"),
                                synthgen.make_dataset(spec_a, spec_b))


def _group(manifest, config_id):
    return split_by_config(load_manifest(manifest))[config_id]


def _read_features(path):
    """The feature cells of a `features` CSV as floats, and its header."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    X = np.array([[float(c) for c in line.split(",")[:-2]] for line in lines[1:]])
    return X, header


def _record_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's first argument."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0


def test_no_command_is_usage_error():
    assert main([]) == 1


def test_unknown_flag_is_usage_error():
    assert main(["synth", "--bogus"]) == 1


def test_removed_flags_are_usage_errors(corpus, tmp_path):
    m = ["--manifest", str(corpus), "--config-id", "synth_a"]
    for argv in (["features", *m, "--features-out", str(tmp_path / "f.csv")],
                 ["rank-report", *m, "--out", str(tmp_path / "r.csv")]):
        flags = ([["--classifier", "lr"], ["--rfe", "on"], ["--seed", "1"]]
                 if argv[0] == "features" else [["--rfe", "off"]])
        for flag in flags:
            assert main(argv + flag) == 1, (argv[0], flag)
    assert not any(tmp_path.iterdir())


def test_every_declared_option_is_read(corpus, tmp_path):
    """Each subcommand reads every option it declares: none is accepted and ignored."""
    record_id = json.loads(corpus.read_text())[0]["record_id"]
    m, a = ["--manifest", str(corpus)], ["--config-id", "synth_a"]
    out = ["--out", str(tmp_path / "out")]
    argvs = {
        "synth": ["--out-dir", str(tmp_path / "synth"), "--n", "2"],
        "features": [*m, *a, "--features-out", str(tmp_path / "f.csv")],
        "eval": [*m, *a, "--classifier", "lr", "--reps", "2", "--check", *out],
        "cv": [*m, *a, "--classifier", "lr", "--folds", "3", *out],
        "transfer": [*m, "--source-config", "synth_a", "--target-config", "synth_b",
                     "--classifier", "lr", *out],
        "rank-report": [*m, *a, "--classifier", "lr", "--reps", "2", *out],
        "dump-transform": [*m, "--record-id", record_id, "--kind", "acf", *out],
    }
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(argvs) == set(subparsers)
    unread = {}
    for name, argv in argvs.items():
        args = parser.parse_args([name, *argv])
        reads = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, attr):
                reads.add(attr)
                return super().__getattribute__(attr)

        assert args.fn(Recording(**vars(args))) == 0, name
        declared = {action.dest for action in subparsers[name]._actions
                    if action.option_strings and action.dest != "help"}
        if declared - reads:
            unread[name] = sorted(declared - reads)
    assert unread == {}


@pytest.mark.parametrize("command, flag, value, field", [
    ("eval", "--alpha", "2", "alpha"),
    ("eval", "--n-peaks", "0", "n_peaks"),
    ("eval", "--mpd-fft", "-1", "mpd_fft"),
    ("eval", "--target-rate-hz", "0", "target_rate_hz"),
    ("eval", "--reps", "0", "n_rep"),
    ("eval", "--test-frac", "1.5", "test_frac"),
    ("eval", "--test-frac", "0", "test_frac"),
    ("rank-report", "--reps", "0", "n_rep"),
])
def test_bad_setting_is_an_error_not_a_traceback(corpus, tmp_path, command, flag, value,
                                                 field):
    out = tmp_path / "report"
    env = dict(os.environ, PYTHONPATH=str(Path(chatterkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "chatterkit.cli", command, "--manifest", str(corpus),
         "--config-id", "synth_a", "--classifier", "lr", flag, value, "--out", str(out)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("error: ") and field in last, proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--cutoff-hz", "9000", "cutoff_hz"),  # above the 5 kHz working Nyquist
    ("--filter-order", "3", "filter_order"),
])
def test_bad_anti_alias_setting_is_an_error(corpus_20k, tmp_path, capsys, flag, value,
                                            field):
    out = tmp_path / "report"
    assert main(["eval", "--manifest", str(corpus_20k), "--classifier", "lr",
                 flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: {field} must be")
    assert not out.exists()


@pytest.mark.parametrize("n", ("0", "-1"))
def test_synth_without_records_is_an_error(tmp_path, capsys, n):
    out = tmp_path / "corpus"
    assert main(["synth", "--out-dir", str(out), "--n", n]) == 1
    assert capsys.readouterr().err == f"error: n_per_class {n} must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--noise-b", "-1", "noise_std -1.0 must be >= 0"),
    ("--noise-b", "nan", "noise_std nan must be >= 0"),
    ("--freq-a", "0", "chatter_freq_hz 0.0 must be > 0"),
    ("--freq-a", "-800", "chatter_freq_hz -800.0 must be > 0"),
])
def test_synth_bad_tone_or_noise_is_an_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "corpus"
    assert main(["synth", "--out-dir", str(out), flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _manifest_copy(corpus, path, edit):
    """corpus's manifest at path, signal files made absolute, after edit(entries)."""
    entries = json.loads(corpus.read_text())
    for e in entries:
        e["file"] = str(corpus.parent / e["file"])
    edit(entries)
    path.write_text(json.dumps(entries))
    return path


@pytest.mark.parametrize("key, value, rule", [
    ("sample_rate_hz", "abc", "a positive finite number, got 'abc'"),
    ("sample_rate_hz", None, "a positive finite number, got None"),
    ("sample_rate_hz", "nan", "a positive finite number, got 'nan'"),
    ("overhang_cm", "x", "a positive finite number, got 'x'"),
    ("overhang_cm", None, "a positive finite number, got None"),
    ("rpm", [1], "a positive finite number, got [1]"),
    ("sample_rate_hz", 0, "a positive finite number, got 0"),
    ("depth_cm", -1, "a positive finite number, got -1"),
    ("file", 123, "a string, got 123"),
    ("config_id", 7, "a string, got 7"),
    ("record_id", 7, "a string, got 7"),
])
def test_bad_manifest_field_is_an_error(corpus, tmp_path, capsys, key, value, rule):
    manifest = _manifest_copy(corpus, tmp_path / "manifest.json",
                              lambda entries: entries[1].update({key: value}))
    out = tmp_path / "r.json"
    assert main(["eval", "--manifest", str(manifest), "--config-id", "synth_z",
                 "--classifier", "lr", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {manifest}: entry 1: {key} must be {rule}\n"
    assert not out.exists()


def test_unreadable_input_or_unwritable_output_is_an_error(corpus, tmp_path, capsys):
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"[\xff]")
    signal = tmp_path / "signal.csv"
    signal.write_bytes(b"0.5\n\xff\n")
    bad_signal = _manifest_copy(corpus, tmp_path / "bad_signal.json",
                                lambda entries: entries[0].update(file=str(signal)))
    dir_signal = _manifest_copy(corpus, tmp_path / "dir_signal.json",
                                lambda entries: entries[0].update(file=str(tmp_path)))
    missing = tmp_path / "missing" / "out.csv"

    def eval_(manifest, out=tmp_path / "r"):
        return ["eval", "--manifest", str(manifest), "--classifier", "lr", "--reps", "2",
                "--out", str(out)]

    cases = [
        (eval_(not_utf8), f"{not_utf8}: not UTF-8 text"),
        (eval_(bad_signal), f"{signal}: not UTF-8 text"),
        (eval_(tmp_path), f"manifest not found: {tmp_path}"),
        (eval_(dir_signal), f"{dir_signal}: entry 0: signal file not found: {tmp_path}"),
        (eval_(corpus, missing), f"{missing}: cannot write"),
        (["features", "--manifest", str(corpus), "--features-out", str(missing)],
         f"{missing}: cannot write"),
    ]
    for argv, message in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith(f"error: {message}"), (argv, err)
    assert not missing.parent.exists() and not (tmp_path / "r").exists()


def test_output_is_checked_before_any_signal_is_parsed(corpus, tmp_path, monkeypatch,
                                                       capsys):
    record_id = json.loads(corpus.read_text())[0]["record_id"]
    parsed = _record_calls(monkeypatch, dataset, "_read_signal")
    missing = tmp_path / "missing" / "out"
    m, a = ["--manifest", str(corpus)], ["--config-id", "synth_a", "--classifier", "lr"]
    argvs = [
        ["features", *m, "--features-out", str(missing)],
        ["eval", *m, *a, "--reps", "2", "--out", str(missing)],
        ["cv", *m, *a, "--folds", "2", "--out", str(missing)],
        ["transfer", *m, "--source-config", "synth_a", "--target-config", "synth_b",
         "--classifier", "lr", "--out", str(missing)],
        ["rank-report", *m, *a, "--reps", "2", "--out", str(missing)],
        ["dump-transform", *m, "--record-id", record_id, "--kind", "fft",
         "--out", str(missing)],
    ]
    for argv in argvs:
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {missing}: cannot write (No such file or directory)"), argv[0]
        assert parsed == [], argv[0]
    assert main(["eval", *m, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path}: cannot write (Is a directory)\n"
    assert parsed == []


def test_filter_design_is_checked_before_any_signal_is_parsed(corpus_20k, tmp_path,
                                                             monkeypatch, capsys):
    at_rate = synthgen.SynthSpec(n_per_class=2, seed=1, config_id="at_rate")
    slow = synthgen.SynthSpec(n_per_class=2, sample_rate_hz=5000.0, seed=2,
                              chatter_freq_hz=1600.0, config_id="slow")
    below = dataset.write_corpus(tmp_path / "below", synthgen.make_dataset(at_rate, slow))
    slow_id = _group(below, "slow").records[0].record_id
    fast_id = _group(corpus_20k, "fast_b").records[0].record_id
    parsed = _record_calls(monkeypatch, dataset, "_read_signal")
    out = tmp_path / "out"
    cases = [  # (manifest, configs, flags, the error line the parent printed after parsing)
        (corpus_20k, ("fast_a", "fast_b"), ["--filter-order", "700"],
         "error: order 700 with cutoff 4500.0 Hz: the filter gain is not a finite number"),
        (corpus_20k, ("fast_a", "fast_b"), ["--filter-order", "200", "--cutoff-hz", "100"],
         "error: order 200 with cutoff 100.0 Hz: the filter gain underflows to 0"),
        (below, ("at_rate", "slow"), [],
         f"error: record {slow_id!r}: decimation factor 0.5 is not a positive integer "
         "(5000.0 Hz -> 10000.0 Hz)"),
    ]
    for manifest, (source, target), flags, line in cases:
        m = ["--manifest", str(manifest), *flags]
        argvs = [
            ["features", *m, "--features-out", str(out)],
            ["eval", *m, "--classifier", "lr", "--reps", "2", "--out", str(out)],
            ["cv", *m, "--classifier", "lr", "--folds", "2", "--out", str(out)],
            ["transfer", *m, "--source-config", source, "--target-config", target,
             "--classifier", "lr", "--out", str(out)],
            ["rank-report", *m, "--classifier", "lr", "--reps", "2", "--out", str(out)],
            ["dump-transform", *m, "--record-id", fast_id if manifest == corpus_20k
             else slow_id, "--kind", "fft", "--out", str(out)],
        ]
        for argv in argvs:
            assert main(argv) == 1, argv
            assert capsys.readouterr().err.splitlines()[-1] == line, argv
            assert parsed == [], argv
    assert not out.exists()


def test_synth_out_dir_that_cannot_be_made_is_an_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("x")
    for out_dir, reason in ((afile, "File exists"), (afile / "sub", "Not a directory")):
        assert main(["synth", "--out-dir", str(out_dir), "--n", "1"]) == 1
        assert capsys.readouterr().err == f"error: {out_dir}: cannot write ({reason})\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


def test_record_below_the_working_rate_is_an_error(tmp_path, capsys):
    spec_a = synthgen.SynthSpec(n_per_class=2, seed=1, config_id="at_rate")
    spec_b = synthgen.SynthSpec(n_per_class=2, sample_rate_hz=5000.0, seed=2,
                                chatter_freq_hz=1600.0, config_id="slow")
    manifest = dataset.write_corpus(tmp_path / "corpus", synthgen.make_dataset(spec_a, spec_b))
    slow = _group(manifest, "slow").records[0].record_id
    out = tmp_path / "report"
    assert main(["eval", "--manifest", str(manifest), "--classifier", "lr",
                 "--out", str(out)]) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"error: record {slow!r}: ") and "5000.0 Hz -> 10000.0 Hz" in last
    assert not out.exists()


def test_every_matrix_command_logs_its_exclusions(corpus, tmp_path, monkeypatch, capsys):
    dropped = {_group(corpus, cid).records[0].record_id for cid in ("synth_a", "synth_b")}
    extract = featurize.extract_features

    def short_of_peaks(ts, cfg):
        if ts.record_id in dropped:
            raise PeakShortfall("fft", 1, cfg.n_peaks)
        return extract(ts, cfg)

    monkeypatch.setattr(featurize, "extract_features", short_of_peaks)
    m, out = ["--manifest", str(corpus)], ["--out", str(tmp_path / "out")]
    runs = [
        ["features", *m, "--features-out", str(tmp_path / "f.csv")],
        ["eval", *m, "--classifier", "lr", "--reps", "2", *out],
        ["cv", *m, "--classifier", "lr", "--folds", "3", *out],
        ["rank-report", *m, "--classifier", "lr", "--reps", "2", *out],
        ["transfer", *m, "--source-config", "synth_a", "--target-config", "synth_b",
         "--classifier", "lr", *out],
    ]
    for argv in runs:
        capsys.readouterr()
        assert main(argv) == 0, argv[0]
        logged = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("excluded ")]
        assert sorted(logged) == sorted(
            f"excluded {rid}: fft: found 1 peaks, requested 2" for rid in dropped), argv[0]


def test_missing_manifest_is_runtime_error(tmp_path, capsys):
    rc = main(["eval", "--manifest", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_synth_writes_manifest(corpus):
    entries = json.loads(corpus.read_text())
    assert len(entries) == 16
    assert {e["config_id"] for e in entries} == {"synth_a", "synth_b"}


def test_features_csv(corpus, tmp_path):
    out = tmp_path / "features.csv"
    rc = main(["features", "--manifest", str(corpus),
               "--config-id", "synth_a", "--features-out", str(out)])
    assert rc == 0
    X, header = _read_features(out)
    assert header[:2] == ["fft_p1_x", "fft_p1_y"]
    assert header[-2:] == ["label", "config_id"]
    assert X.shape == (8, 12)  # 8 records; 12 features + label + config_id
    assert len(header) == 14
    assert np.array_equal(X, build_matrix(_group(corpus, "synth_a")).X)


def test_library_matrix_decimates_like_cli(corpus_20k, tmp_path):
    out = tmp_path / "features.csv"
    assert main(["features", "--manifest", str(corpus_20k),
                 "--config-id", "fast_a", "--features-out", str(out)]) == 0
    X, _ = _read_features(out)
    assert np.array_equal(X, build_matrix(_group(corpus_20k, "fast_a")).X)


def test_commands_load_once_and_decimate_only_what_they_use(corpus_20k, tmp_path,
                                                            monkeypatch):
    ids = {cid: sorted(r.record_id for r in _group(corpus_20k, cid).records)
           for cid in ("fast_a", "fast_b")}
    loads = _record_calls(monkeypatch, cli, "load_manifest")
    decimated = _record_calls(monkeypatch, preprocess, "decimate")
    m, out = ["--manifest", str(corpus_20k)], ["--out", str(tmp_path / "out")]
    runs = [
        (["eval", *m, "--config-id", "fast_a", "--classifier", "lr", "--reps", "2"],
         ids["fast_a"]),
        (["transfer", *m, "--source-config", "fast_a", "--target-config", "fast_b",
          "--classifier", "lr"], ids["fast_a"] + ids["fast_b"]),
        (["dump-transform", *m, "--record-id", ids["fast_b"][0], "--kind", "fft"],
         ids["fast_b"][:1]),
    ]
    for argv, expected in runs:
        loads.clear()
        decimated.clear()
        assert main(argv + out) == 0
        assert len(loads) == 1, argv[0]
        assert sorted(ts.record_id for ts in decimated) == expected, argv[0]


def test_commands_parse_only_the_configs_they_use(corpus_20k, tmp_path, monkeypatch):
    ids = {cid: sorted(r.record_id for r in _group(corpus_20k, cid).records)
           for cid in ("fast_a", "fast_b")}
    parsed = _record_calls(monkeypatch, dataset, "_read_signal")
    m, out = ["--manifest", str(corpus_20k)], ["--out", str(tmp_path / "out")]
    runs = [
        (["eval", *m, "--config-id", "fast_a", "--classifier", "lr", "--reps", "2"],
         ids["fast_a"]),
        (["transfer", *m, "--source-config", "fast_a", "--target-config", "fast_b",
          "--classifier", "lr"], ids["fast_a"] + ids["fast_b"]),
    ]
    for argv, expected in runs:
        parsed.clear()
        assert main(argv + out) == 0
        assert sorted(Path(p).stem for p in parsed) == expected, argv[0]


def test_corrupt_signal_fails_only_commands_that_use_it(corpus_20k, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_20k.parent, corpus)
    bad = corpus / f"{_group(corpus_20k, 'fast_b').records[0].record_id}.csv"
    with open(bad, "a", encoding="utf-8") as fh:
        fh.write("oops\n")
    n_lines = len(bad.read_text(encoding="utf-8").splitlines())
    m, out = ["--manifest", str(corpus / "manifest.json")], ["--out", str(tmp_path / "r")]
    eval_a = ["eval", *m, "--config-id", "fast_a", "--classifier", "lr", "--reps", "2"]
    assert main(eval_a + out) == 0
    failing = [
        ["eval", *m, "--classifier", "lr", "--reps", "2"],
        ["transfer", *m, "--source-config", "fast_a", "--target-config", "fast_b",
         "--classifier", "lr"],
    ]
    for argv in failing:
        capsys.readouterr()
        assert main(argv + out) == 1, argv[0]
        assert capsys.readouterr().err == (
            f"error: {bad}: bad value on line {n_lines}: 'oops'\n"), argv[0]


def test_mpd_flags_leave_library_defaults(corpus, tmp_path):
    assert main(["features", "--manifest", str(corpus), "--config-id", "synth_a",
                 "--mpd-fft", "3", "--mpd-acf", "7", "--mpd-psd", "2",
                 "--features-out", str(tmp_path / "f.csv")]) == 0
    assert PipelineConfig().peak_constraints(Kind.FFT).mpd == 500
    assert PipelineConfig().peak_constraints(Kind.ACF).mpd == 1000
    assert PipelineConfig().peak_constraints(Kind.PSD).mpd == 0


def test_eval_report_and_check(corpus, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["eval", "--manifest", str(corpus), "--config-id", "synth_a",
               "--classifier", "lr", "--seed", "7", "--out", str(out), "--check"])
    assert rc == 0
    row = json.loads(out.read_text())["results"][0]
    assert row["classifier"] == "lr"
    assert row["n_rep"] == 10
    assert 0.0 <= row["mean_test"] <= 1.0


def test_eval_deterministic_bytes(corpus, tmp_path):
    args = ["eval", "--manifest", str(corpus), "--config-id", "synth_a",
            "--classifier", "lr", "--seed", "3"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_check_flags_bad_report(corpus, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["eval", "--manifest", str(corpus), "--config-id", "synth_a",
               "--classifier", "lr", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    doc["results"][0]["mean_test"] = 7.5
    out.write_text(json.dumps(doc))
    from chatterkit.evaluate import check_report

    capsys.readouterr()
    assert check_report(str(out)) == 2
    assert "mean_test" in capsys.readouterr().err
    # the check must not vanish with assert statements under python -O
    env = dict(os.environ, PYTHONPATH=str(Path(chatterkit.__file__).parents[1]))
    code = ("import sys; from chatterkit.evaluate import check_report; "
            "sys.exit(check_report(sys.argv[1]))")
    proc = subprocess.run([sys.executable, "-O", "-c", code, str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "mean_test" in proc.stderr and "7.5" in proc.stderr


def test_cv_report(corpus, tmp_path):
    out = tmp_path / "cv.json"
    rc = main(["cv", "--manifest", str(corpus), "--config-id", "synth_a",
               "--classifier", "lr", "--folds", "4", "--out", str(out)])
    assert rc == 0
    row = json.loads(out.read_text())["results"][0]
    assert row["protocol"] == "kfold(k=4)"
    assert row["n_rep"] == 4


def test_transfer_report(corpus, tmp_path):
    out = tmp_path / "transfer.json"
    rc = main(["transfer", "--manifest", str(corpus),
               "--source-config", "synth_a", "--target-config", "synth_b",
               "--classifier", "lr", "--out", str(out)])
    assert rc == 0
    row = json.loads(out.read_text())["results"][0]
    assert row["source_config"] == "synth_a"
    assert row["target_config"] == "synth_b"
    assert row["protocol"] == "transfer"


def test_unknown_config_id(corpus, tmp_path, capsys):
    m, out = ["--manifest", str(corpus)], ["--out", str(tmp_path / "r.json")]
    for argv in (["eval", *m, "--config-id", "synth_z"],
                 ["transfer", *m, "--source-config", "synth_a",
                  "--target-config", "synth_z"]):
        assert main(argv + out) == 1
        assert capsys.readouterr().err == (
            "error: dataset: config 'synth_z' not in manifest "
            "(have ['synth_a', 'synth_b'])\n"), argv[0]


def test_rank_report(corpus, tmp_path):
    out = tmp_path / "rank.csv"
    rc = main(["rank-report", "--manifest", str(corpus),
               "--config-id", "synth_a", "--classifier", "lr",
               "--reps", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "feature_name,rank,selection_count"
    assert len(lines) == 13
    ranks = sorted(int(line.split(",")[1]) for line in lines[1:])
    assert ranks == list(range(1, 13))


def test_dump_transform(corpus, tmp_path):
    record_id = json.loads(corpus.read_text())[0]["record_id"]
    out = tmp_path / "fft.csv"
    rc = main(["dump-transform", "--manifest", str(corpus),
               "--record-id", record_id, "--kind", "fft", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) > 1000


def test_dump_transform_unknown_record(corpus, tmp_path, capsys):
    rc = main(["dump-transform", "--manifest", str(corpus),
               "--record-id", "missing", "--kind", "acf",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "missing" in capsys.readouterr().err


def test_dump_transform_parses_only_its_record(corpus_20k, tmp_path, monkeypatch,
                                               capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_20k.parent, corpus)
    a, b = (_group(corpus_20k, cid).records for cid in ("fast_a", "fast_b"))
    with open(corpus / f"{a[1].record_id}.csv", "a", encoding="utf-8") as fh:
        fh.write("oops\n")
    parsed = _record_calls(monkeypatch, dataset, "_read_signal")
    m = ["--manifest", str(corpus / "manifest.json")]
    out = ["--kind", "psd", "--out", str(tmp_path / "psd.csv")]
    for config in ([], ["--config-id", "fast_a"]):
        parsed.clear()
        assert main(["dump-transform", *m, *config, "--record-id", a[0].record_id,
                     *out]) == 0
        assert [Path(p).stem for p in parsed] == [a[0].record_id]
    failing = [
        (["--config-id", "fast_z", "--record-id", "missing"],
         "dataset: config 'fast_z' not in manifest (have ['fast_a', 'fast_b'])"),
        (["--config-id", "fast_a", "--record-id", b[0].record_id],
         f"dataset: record {b[0].record_id!r} not found"),
        (["--record-id", "missing"], "dataset: record 'missing' not found"),
    ]
    for argv, message in failing:
        parsed.clear()
        capsys.readouterr()
        assert main(["dump-transform", *m, *argv, *out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert parsed == []
