import numpy as np
import pytest

from chatterkit.dataset import CuttingConfig, LabeledDataset, RawLabel, TimeSeries
from chatterkit.errors import ConfigError, EvaluationError, FilterDesignError, PeakShortfall
from chatterkit.featurize import (
    FeatureMatrix,
    PipelineConfig,
    build_matrix,
    extract_features,
    feature_names,
    standardize,
)
from chatterkit import preprocess, synthgen
from chatterkit.transform import IndexedSequence, Kind


@pytest.fixture(scope="module")
def chatter_ts():
    return synthgen.make_signal(1, synthgen.SynthSpec(seed=42), 0)


def test_five_peaks_gives_30_features(chatter_ts):
    assert extract_features(chatter_ts, PipelineConfig(n_peaks=5)).size == 30


def test_two_peaks_gives_12_features(chatter_ts):
    assert extract_features(chatter_ts, PipelineConfig(n_peaks=2)).size == 12


def test_feature_name_layout():
    assert feature_names(2) == [
        "fft_p1_x", "fft_p1_y", "fft_p2_x", "fft_p2_y",
        "psd_p1_x", "psd_p1_y", "psd_p2_x", "psd_p2_y",
        "acf_p1_x", "acf_p1_y", "acf_p2_x", "acf_p2_y",
    ]


def test_two_tone_fft_x_features(make_ts):
    rate, n = 10000.0, 10000
    t = np.arange(n) / rate
    x = np.sin(2 * np.pi * 200 * t) + 0.8 * np.sin(2 * np.pi * 900 * t)
    x += np.random.default_rng(1).normal(0, 0.01, n)
    fv = extract_features(make_ts(x, rate=rate), PipelineConfig(n_peaks=2))
    bin_width = rate / 16384
    assert abs(fv[0] - 200) <= bin_width + 1e-9
    assert abs(fv[2] - 900) <= bin_width + 1e-9


def test_peak_shortfall_is_error(make_ts):
    # single tone: FFT has one dominant peak; demanding 5 spaced peaks at a
    # high threshold must fail loudly, not pad
    t = np.arange(10000) / 10000.0
    x = np.sin(2 * np.pi * 500 * t)
    with pytest.raises(PeakShortfall) as err:
        extract_features(make_ts(x), PipelineConfig(n_peaks=5, alpha=1.0))
    assert err.value.found < err.value.requested


def test_extract_deterministic(chatter_ts):
    a = extract_features(chatter_ts, PipelineConfig(n_peaks=2))
    b = extract_features(chatter_ts, PipelineConfig(n_peaks=2))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("y", ([0, 1, 2], [1, 2, 1], [-1, 1, 1]))
def test_feature_matrix_labels_are_binary(y):
    with pytest.raises(EvaluationError, match="labels must be 0 or 1"):
        FeatureMatrix(X=np.zeros((3, 1)), y=y, feature_names=("a",))
    FeatureMatrix(X=np.zeros((3, 1)), y=[0, 0, 0], feature_names=("a",))


@pytest.mark.parametrize("build, attr", [
    (lambda a: TimeSeries(a, 1000.0, CuttingConfig(1.0, 1.0, 1.0, "c"),
                          RawLabel.STABLE), "samples"),
    (lambda a: IndexedSequence(a, a, Kind.FFT), "ys"),
    (lambda a: FeatureMatrix(X=a.reshape(1, -1), y=[0], feature_names=tuple("abcdef")),
     "X"),
], ids=["TimeSeries", "IndexedSequence", "FeatureMatrix"])
def test_constructors_copy_their_input(build, attr):
    x = np.arange(1.0, 7.0)
    obj = build(x)
    assert x.flags.writeable
    x[0] = -1.0
    assert getattr(obj, attr).ravel()[0] == 1.0


@pytest.mark.parametrize("field, value", [
    ("target_rate_hz", 0.0), ("target_rate_hz", -10000.0), ("target_rate_hz", np.nan),
    ("alpha", 2.0), ("alpha", -0.1), ("alpha", np.nan), ("n_peaks", 0),
    ("mpd_fft", -1), ("mpd_acf", -1), ("mpd_psd", -1),
])
def test_config_out_of_range(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        PipelineConfig(**{field: value})


def test_config_range_ends_are_valid():
    for alpha in (0.0, 1.0):
        PipelineConfig(alpha=alpha, n_peaks=1, mpd_fft=0, mpd_acf=0, mpd_psd=0)


@pytest.mark.parametrize("settings, field", [
    ({"cutoff_hz": 5000.0}, "cutoff_hz"),  # the working Nyquist itself
    ({"cutoff_hz": 9000.0}, "cutoff_hz"),
    ({"cutoff_hz": 0.0}, "cutoff_hz"),
    ({"cutoff_hz": -1.0}, "cutoff_hz"),
    ({"cutoff_hz": np.nan}, "cutoff_hz"),
    ({"cutoff_hz": 10000.0, "target_rate_hz": 20000.0}, "cutoff_hz"),
    ({"filter_order": 3}, "filter_order"),
    ({"filter_order": 1}, "filter_order"),
    ({"filter_order": 0}, "filter_order"),
    ({"filter_order": -2}, "filter_order"),
])
def test_anti_alias_settings_out_of_range(settings, field):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        PipelineConfig(**settings)


def test_anti_alias_range_ends_are_valid():
    PipelineConfig(cutoff_hz=4999.0, filter_order=2)
    PipelineConfig(cutoff_hz=9999.0, target_rate_hz=20000.0)
    PipelineConfig(cutoff_hz=None)


def test_record_below_the_working_rate_is_an_error(make_ts):
    cfg = PipelineConfig()
    at_rate = make_ts(np.ones(8), rate=10000.0)
    assert cfg.to_working_rate(at_rate) is at_rate
    with pytest.raises(FilterDesignError, match=r"'slow'.*5000.0 Hz -> 10000.0 Hz"):
        cfg.to_working_rate(make_ts(np.ones(8), rate=5000.0, record_id="slow"))


def test_check_rate_raises_what_to_working_rate_would(monkeypatch):
    cfg = PipelineConfig()
    cfg.check_rate("r", 160000.0)
    # a record at the working rate needs no filter, so none is designed
    monkeypatch.setattr(preprocess, "design_butterworth_lowpass", None)
    cfg.check_rate("r", 10000.0)
    for rate in (15000.0, 5000.0):
        with pytest.raises(FilterDesignError,
                           match=rf"^record 'r': .* \({rate} Hz -> 10000.0 Hz\)$"):
            cfg.check_rate("r", rate)


class TestBuildMatrix:
    def test_shape_and_labels(self):
        spec = synthgen.SynthSpec(n_per_class=5, seed=1)
        ds = LabeledDataset(records=tuple(synthgen.make_config_records(spec)))
        fm = build_matrix(ds, PipelineConfig(n_peaks=2))
        assert fm.X.shape == (10, 12)
        assert list(fm.y) == [0, 1] * 5
        assert fm.excluded == ()

    def test_unknown_records_excluded(self):
        spec = synthgen.SynthSpec(n_per_class=3, seed=2)
        records = list(synthgen.make_config_records(spec))
        from dataclasses import replace

        records[0] = replace(records[0], label=RawLabel.UNKNOWN)
        fm = build_matrix(LabeledDataset(records=tuple(records)),
                          PipelineConfig(n_peaks=2))
        assert fm.X.shape[0] == 5

    def test_shortfall_rows_reported(self, make_ts):
        spec = synthgen.SynthSpec(n_per_class=2, seed=3)
        records = list(synthgen.make_config_records(spec))
        # too few samples for 5 peaks at MPD 500: must be excluded, not padded
        t = np.arange(64) / 10000.0
        bad = make_ts(np.sin(2 * np.pi * 500 * t), label=RawLabel.CHATTER,
                      record_id="bad")
        fm = build_matrix(LabeledDataset(records=tuple(records + [bad])),
                          PipelineConfig(n_peaks=5))
        assert any(rid == "bad" for rid, _ in fm.excluded)
        assert fm.X.shape == (4, 30)

    def test_empty_dataset_is_not_an_exclusion(self, make_ts):
        with pytest.raises(EvaluationError, match="^no learnable records$"):
            build_matrix(LabeledDataset(records=()))
        unknown = make_ts(np.ones(8), label=RawLabel.UNKNOWN)
        with pytest.raises(EvaluationError, match="^no learnable records$"):
            build_matrix(LabeledDataset(records=(unknown,)))
        t = np.arange(64) / 10000.0
        short = make_ts(np.sin(2 * np.pi * 500 * t), label=RawLabel.CHATTER)
        with pytest.raises(EvaluationError, match="^no usable rows after exclusions$"):
            build_matrix(LabeledDataset(records=(short,)), PipelineConfig(n_peaks=5))

    def test_zero_usable_rows(self, make_ts):
        t = np.arange(64) / 10000.0
        bad = make_ts(np.sin(2 * np.pi * 500 * t), label=RawLabel.CHATTER)
        with pytest.raises(EvaluationError):
            build_matrix(LabeledDataset(records=(bad,)), PipelineConfig(n_peaks=5))


class TestStandardize:
    def test_train_stats(self):
        rng = np.random.default_rng(20)
        X = rng.normal(3.0, 2.5, size=(50, 4))
        scaler = standardize(X)
        Z = scaler.transform(X)
        assert np.all(np.abs(Z.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(Z.std(axis=0) - 1.0) < 1e-9)

    def test_constant_column_scales_to_zero(self):
        X = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        Z = standardize(X).transform(X)
        assert np.all(Z[:, 0] == 0.0)

    def test_test_rows_use_train_stats(self):
        rng = np.random.default_rng(21)
        train = rng.normal(0, 1, size=(30, 3))
        test = rng.normal(5, 9, size=(10, 3))
        scaler = standardize(train)
        Z = scaler.transform(test)
        expected = (test - train.mean(axis=0)) / train.std(axis=0)
        assert np.allclose(Z, expected)


def test_feature_matrix_checks_its_shape():
    with pytest.raises(EvaluationError, match="^X/y shape mismatch$"):
        FeatureMatrix(X=np.zeros((3, 2)), y=[0, 1], feature_names=("a", "b"))
    with pytest.raises(EvaluationError, match="^feature_names length != column count$"):
        FeatureMatrix(X=np.zeros((2, 2)), y=[0, 1], feature_names=("a",))
