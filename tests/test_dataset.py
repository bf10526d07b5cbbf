import json
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chatterkit import dataset
from chatterkit.dataset import (
    CuttingConfig,
    LabeledDataset,
    RawLabel,
    TimeSeries,
    _read_signal,
    load_manifest,
    split_by_config,
    to_binary,
)
from chatterkit.errors import ManifestError, OutputError, SignalLoadError


def _read_signal_reference(path):
    """The line loop `_read_signal` replaced, unchanged: the reference."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                if lineno == 1:  # optional header
                    continue
                raise SignalLoadError(f"{path}: bad value on line {lineno}: {text!r}")
    if not values:
        raise SignalLoadError(f"{path}: no samples")
    return np.array(values, dtype=float)


def _outcome(read, path):
    """float64 bits of what read(path) returns, or its exception, and warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = read(path)
            result = (out.dtype, out.shape, out.view(np.int64).tolist())
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


_SPACE = st.sampled_from(["", " ", "  ", "\t", "\x0b", "\x0c", "\xa0", "\x1c"])
_FLOAT_TEXT = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.floats(-1e3, 1e3, allow_nan=False).map(lambda v: f"{v:.6g}"),
    st.sampled_from(["0", "-0", "+1e3", "1_0", "1e999", "nan", "-nan", "inf",
                     "-inf", "Infinity", ".5", "5.", "1E-3", "0x10"]),
)
_OTHER_TEXT = st.sampled_from(["", "acceleration", "# comment", "1 2", "1\t2",
                               "1,2", "a,b", "1.0.0", "--1", "1 #", "\ufeff1.0"])


@st.composite
def _signal_text(draw):
    """A signal file: lines of floats, words, blanks and whitespace, any ending."""
    lines = draw(st.lists(
        st.one_of(_FLOAT_TEXT, _FLOAT_TEXT, _FLOAT_TEXT, _OTHER_TEXT), max_size=12))
    if draw(st.booleans()):
        lines = [draw(st.sampled_from(["header", "acceleration (m/s^2)", "t,x"]))] + lines
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(draw(_SPACE) + line + draw(_SPACE) + draw(ends) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_signal_text())
def test_read_signal_matches_reference_loop(tmp_path, text):
    path = tmp_path / "sig.csv"
    path.write_bytes(text.encode("utf-8"))
    want, _ = _outcome(_read_signal_reference, path)
    assert _outcome(_read_signal, path) == (want, [])


@pytest.mark.parametrize("text", [
    "acceleration\r\n 0.1 \r\n\r\n\t-0.2\r\n",  # header, CRLF, blanks
    "# comment\n0.1\n",                             # '#' is a header on line 1 only
    "0.1\n# comment\n",
    "0.1 0.2\n0.3 0.4\n",                            # two values on a line
    "1_0\n+1e3\nnan\n-inf\n",                        # float() syntax loadtxt lacks
    "",                                              # empty file
    "acceleration\n",                                # header only
    "\n\nacceleration\n0.1\n",                      # a header on line 3 is bad
    "0.5\x1c\n0.5\n",                                # str.strip() drops U+001C, float() not
])
def test_read_signal_edge_cases_match_reference_loop(tmp_path, text):
    path = tmp_path / "sig.csv"
    path.write_bytes(text.encode("utf-8"))
    want, _ = _outcome(_read_signal_reference, path)
    assert _outcome(_read_signal, path) == (want, [])


def test_read_signal_parses_plain_files_without_the_line_loop(tmp_path, monkeypatch):
    def line_loop(path):
        raise AssertionError(f"line loop ran on {path}")

    monkeypatch.setattr(dataset, "_read_signal_lines", line_loop)
    cases = [("acceleration\r\n0.5\r\n\r\n -1e-3 \r\n", [0.5, -1e-3]),
             ("1\n2\n3", [1.0, 2.0, 3.0])]
    for text, want in cases:
        path = tmp_path / "sig.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _read_signal(path).tolist() == want


def write_corpus(tmp_path, entries):
    for i, entry in enumerate(entries):
        if "values" in entry:
            (tmp_path / entry["file"]).write_text(
                "\n".join(str(v) for v in entry.pop("values")) + "\n"
            )
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(entries))
    return manifest


def entry(fname, label, overhang=5.08, values=(0.1, -0.2, 0.3)):
    return {
        "file": fname,
        "sample_rate_hz": 10000,
        "overhang_cm": overhang,
        "rpm": 320,
        "depth_cm": 0.0127,
        "label": label,
        "values": list(values),
    }


def test_load_counts(tmp_path):
    manifest = write_corpus(
        tmp_path,
        [entry("a.csv", "chatter"), entry("b.csv", "chatter"), entry("c.csv", "stable")],
    )
    ds = load_manifest(manifest)
    assert len(ds) == 3
    assert len(ds.learnable) == 3


def test_missing_signal_file_named(tmp_path):
    manifest = write_corpus(tmp_path, [entry("a.csv", "stable")])
    bad = json.loads(manifest.read_text())
    bad.append({k: v for k, v in entry("ghost.csv", "stable").items() if k != "values"})
    manifest.write_text(json.dumps(bad))
    with pytest.raises(ManifestError, match="ghost.csv"):
        load_manifest(manifest)


def test_sample_rate_carried(tmp_path):
    manifest = write_corpus(tmp_path, [entry("a.csv", "stable")])
    ds = load_manifest(manifest)
    assert ds.records[0].sample_rate_hz == 10000


def test_malformed_manifest(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{not json")
    with pytest.raises(ManifestError):
        load_manifest(path)
    path.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_entry_with_missing_keys_named(tmp_path):
    e = entry("a.csv", "stable")
    del e["rpm"], e["label"]
    manifest = write_corpus(tmp_path, [e])
    with pytest.raises(ManifestError, match=r"entry 0: missing keys \['label', 'rpm'\]$"):
        load_manifest(manifest)


def test_unknown_label_value_rejected(tmp_path):
    manifest = write_corpus(tmp_path, [entry("a.csv", "stable"), entry("b.csv", "wobbly")])
    with pytest.raises(ManifestError, match="entry 1: unknown label 'wobbly'$"):
        load_manifest(manifest)


def test_non_finite_sample_rejected(tmp_path):
    (tmp_path / "a.csv").write_text("0.1\nnan\n0.3\n")
    manifest = tmp_path / "manifest.json"
    e = entry("a.csv", "stable")
    e.pop("values")
    manifest.write_text(json.dumps([e]))
    with pytest.raises(SignalLoadError, match="non-finite"):
        load_manifest(manifest)


@pytest.mark.parametrize("field", ("overhang_cm", "spindle_rpm", "depth_of_cut_cm"))
@pytest.mark.parametrize("value", (0.0, -1.0))
def test_cutting_config_needs_positive_parameters(field, value):
    params = {"overhang_cm": 5.08, "spindle_rpm": 320.0, "depth_of_cut_cm": 0.0127,
              field: value}
    with pytest.raises(ManifestError,
                       match=r"^config 'c': overhang/rpm/depth must be positive$"):
        CuttingConfig(**params, config_id="c")


def test_time_series_needs_samples_and_a_positive_rate(config):
    with pytest.raises(SignalLoadError, match=r"^record 'r': empty signal$"):
        TimeSeries([], 10000.0, config, RawLabel.STABLE, "r")
    for rate in (0.0, -10000.0):
        with pytest.raises(SignalLoadError,
                           match=r"^record 'r': sample rate must be positive$"):
            TimeSeries([0.1, 0.2], rate, config, RawLabel.STABLE, "r")


def test_header_line_tolerated(tmp_path):
    (tmp_path / "a.csv").write_text("acceleration\n0.1\n0.2\n")
    manifest = tmp_path / "manifest.json"
    e = entry("a.csv", "stable")
    e.pop("values")
    manifest.write_text(json.dumps([e]))
    ds = load_manifest(manifest)
    assert ds.records[0].samples.size == 2


def test_unknown_label_retained_but_excluded(tmp_path):
    manifest = write_corpus(
        tmp_path, [entry("a.csv", "unknown"), entry("b.csv", "chatter")]
    )
    ds = load_manifest(manifest)
    assert len(ds) == 2
    assert len(ds.learnable) == 1
    assert len(ds.excluded) == 1


def test_conflicting_config_id_rejected(tmp_path):
    e1 = entry("a.csv", "stable")
    e2 = entry("b.csv", "stable")
    e1["config_id"] = e2["config_id"] = "same"
    e2["rpm"] = 570
    manifest = write_corpus(tmp_path, [e1, e2])
    with pytest.raises(ManifestError, match="config_id"):
        load_manifest(manifest)


def test_to_binary_mapping():
    assert to_binary(RawLabel.STABLE) == 0
    assert to_binary(RawLabel.INTERMEDIATE) == 1
    assert to_binary(RawLabel.CHATTER) == 1
    assert to_binary(RawLabel.UNKNOWN) is None


def test_split_by_config_partition(tmp_path):
    manifest = write_corpus(
        tmp_path,
        [
            entry("a.csv", "stable", overhang=5.08),
            entry("b.csv", "chatter", overhang=5.08),
            entry("c.csv", "chatter", overhang=11.43),
        ],
    )
    ds = load_manifest(manifest)
    groups = split_by_config(ds)
    assert len(groups) == 2
    assert sorted(len(g) for g in groups.values()) == [1, 2]
    assert sum(len(g) for g in groups.values()) == len(ds)
    for group in groups.values():
        overhangs = {r.config.overhang_cm for r in group.records}
        assert len(overhangs) == 1


def test_four_overhangs_four_groups(tmp_path):
    entries = [
        entry(f"s{i}.csv", "stable", overhang=oh)
        for i, oh in enumerate([5.08, 6.35, 8.89, 11.43])
    ]
    ds = load_manifest(write_corpus(tmp_path, entries))
    assert len(split_by_config(ds)) == 4


def test_loading_deterministic(tmp_path):
    manifest = write_corpus(
        tmp_path, [entry("a.csv", "stable"), entry("b.csv", "chatter")]
    )
    d1 = load_manifest(manifest)
    d2 = load_manifest(manifest)
    assert len(d1) == len(d2)
    for r1, r2 in zip(d1.records, d2.records):
        assert np.array_equal(r1.samples, r2.samples)
        assert r1.label == r2.label
        assert r1.config == r2.config


_ID = st.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=10)
_POSITIVE = st.floats(min_value=5e-324, max_value=1.7e308)
_SAMPLE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.7e308, -1.7e308]),
)


@st.composite
def _datasets(draw):
    """Records over 1-3 configs, any label, rate and finite samples."""
    config_ids = draw(st.lists(_ID, min_size=1, max_size=3, unique=True))
    configs = [CuttingConfig(draw(_POSITIVE), draw(_POSITIVE), draw(_POSITIVE), cid)
               for cid in config_ids]
    records = tuple(
        TimeSeries(samples=draw(st.lists(_SAMPLE, min_size=1, max_size=20)),
                   sample_rate_hz=draw(_POSITIVE), config=draw(st.sampled_from(configs)),
                   label=draw(st.sampled_from(RawLabel)), record_id=record_id)
        for record_id in draw(st.lists(_ID, min_size=1, max_size=6, unique=True)))
    return LabeledDataset(records=records)


def _fields(rec):
    return (rec.samples.view(np.int64).tolist(), rec.sample_rate_hz.hex(), rec.label,
            rec.config, [v.hex() for v in (rec.config.overhang_cm, rec.config.spindle_rpm,
                                           rec.config.depth_of_cut_cm)], rec.record_id)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_datasets())
def test_write_corpus_then_load_manifest_is_the_identity(tmp_path, ds):
    loaded = load_manifest(dataset.write_corpus(tmp_path / "corpus", ds))
    assert [_fields(r) for r in loaded.records] == [_fields(r) for r in ds.records]


def test_write_corpus_bytes(tmp_path):
    config = CuttingConfig(5.08, 320.0, 0.0127, "a")
    ds = LabeledDataset(records=(
        TimeSeries([0.5, -0.0, 1e-310], 10000.0, config, RawLabel.UNKNOWN, "r_0"),))
    manifest = dataset.write_corpus(tmp_path, ds)
    assert (tmp_path / "r_0.csv").read_bytes() == b"0.5\r\n-0.0\r\n1e-310\r\n"
    assert manifest.read_text() == json.dumps([{
        "config_id": "a", "depth_cm": 0.0127, "file": "r_0.csv", "label": "unknown",
        "overhang_cm": 5.08, "record_id": "r_0", "rpm": 320.0, "sample_rate_hz": 10000.0,
    }], indent=2) + "\n"


def test_output_check_raises_what_the_write_would(tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("x")
    for path in (tmp_path / "missing" / "r.json", afile / "r.json", tmp_path):
        with pytest.raises(OutputError) as written:
            dataset.atomic_write(path, "text")
        with pytest.raises(OutputError) as checked:
            dataset.check_writable(path)
        assert str(checked.value) == str(written.value)
        assert str(written.value).startswith(f"{path}: cannot write (")
    dataset.check_writable(tmp_path / "r.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


def test_atomic_write_gives_the_mode_open_gives(tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("")
    dataset.atomic_write(tmp_path / "atomic", "")
    assert os.stat(tmp_path / "atomic").st_mode == os.stat(plain).st_mode


@pytest.mark.parametrize("ids,bad", [
    (["r", "s", "r"], "'r' names two records"),
    (["r", "../escaped"], "'../escaped' is not a plain file name"),
    (["r", "a/b"], "'a/b' is not a plain file name"),
    (["", "r"], "'' is not a plain file name"),
    (["r", "."], "'.' is not a plain file name"),
    (["r", ".."], "'..' is not a plain file name"),
    (["r", "a\0b"], "'a\\x00b' is not a plain file name"),
])
def test_write_corpus_rejects_ids_that_are_not_one_file_each(tmp_path, ids, bad):
    config = CuttingConfig(5.08, 320.0, 0.0127, "a")
    ds = LabeledDataset(records=tuple(
        TimeSeries([float(i)], 10000.0, config, RawLabel.STABLE, rid)
        for i, rid in enumerate(ids)))
    out = tmp_path / "sub" / "corpus"
    with pytest.raises(OutputError, match="^" + re.escape(f"{out}: record id {bad}")):
        dataset.write_corpus(out, ds)
    assert list(tmp_path.iterdir()) == []


def test_repeated_record_id_names_both_entries(tmp_path):
    entries = [entry(f"{name}.csv", "stable") for name in "abc"]
    for e, rid in zip(entries, ["x", "y", "x"]):
        e["record_id"] = rid
    manifest = write_corpus(tmp_path, entries)
    with pytest.raises(ManifestError, match=r"entries 0 and 2 share record_id 'x'$"):
        load_manifest(manifest)
