"""Run one chatterkit CLI call in this process, with checks or with tracing.

    python3 perfbench/probe.py --mode check --corpus NAME --seed N --expect JSON --out O -- ARGV...
    python3 perfbench/probe.py --mode trace --out O -- ARGV...

Both modes wrap, from outside the package, the public function of each
layer at the name its caller looks it up by (`cli.load_manifest`,
`preprocess.decimate`, `transform.*`, `peaks.find_peaks`,
`featurize.build_matrix`, `learn.fit`, `learn.Model.predict`, `rfe.*`,
`evaluate.*`), then run `chatterkit.cli.main(ARGV)`.

check: each wrapper checks what its layer returned against the
generator's truth, rebuilt from the corpus name and seed
(perfbench/corpus.py), or against properties the method must have
(perfbench/checks.py). Writes the tally as JSON.

trace: each wrapper records its span's duration, its self time (the
duration minus its child spans) and counts. Writes totals as JSON.

Exits with the CLI's exit code.
"""

import argparse
import json
import sys
import time
from collections import defaultdict

import checks
import corpus


class Tracer:
    """Per-layer total time, self time and call counts from nested spans."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._children = []  # child time accumulated by each open span

    def wrap(self, key, fn, after=None):
        """Time fn under key (a string or a function of the call's arguments).

        `after(result, *args, **kwargs)` runs outside the span; its time is
        charged to no layer.
        """
        def wrapper(*args, **kwargs):
            name = key if isinstance(key, str) else key(*args, **kwargs)
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                child = self._children.pop()
                self.total[name] += span
                self.self_time[name] += span - child
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += span
            if after is not None:
                t1 = time.perf_counter()
                after(result, *args, **kwargs)
                if self._children:
                    self._children[-1] += time.perf_counter() - t1
            return result

        return wrapper

    def as_dict(self):
        return {"total": dict(self.total), "self": dict(self.self_time),
                "calls": dict(self.calls), "counts": dict(self.counts)}


def _split_nodes(model):
    """Split nodes in a fitted model, counted from Model.to_json()."""
    def count(node):
        if "feature" not in node:
            return 0
        return 1 + count(node["left"]) + count(node["right"])

    doc = json.loads(model.to_json())
    trees = doc.get("trees", doc.get("stages", []))
    return sum(count(t["root"]) for t in trees)


def install_trace(tracer):
    from chatterkit import cli, evaluate, featurize, learn, peaks, preprocess, rfe, transform

    counts = tracer.counts

    def loaded(ds, *a, **k):
        counts["samples_parsed"] += sum(r.samples.size for r in ds.records)

    def matrix(fm, *a, **k):
        counts["rows"] += fm.n_rows
        counts["excluded"] += len(fm.excluded)

    def fitted(model, *a, **k):
        if model.kind in ("rf", "gb"):
            counts["tree_nodes"] += _split_nodes(model)

    def predicted(result, model, X, *a, **k):
        counts["predict_rows"] += len(X)

    cli.load_manifest = tracer.wrap("dataset.load", cli.load_manifest, loaded)
    preprocess.decimate = tracer.wrap("preprocess.decimate", preprocess.decimate)
    transform.amplitude_spectrum = tracer.wrap("transform.fft", transform.amplitude_spectrum)
    transform.power_spectral_density = tracer.wrap(
        "transform.psd", transform.power_spectral_density)
    transform.autocorrelation = tracer.wrap("transform.acf", transform.autocorrelation)
    peaks.find_peaks = tracer.wrap("peaks.find", peaks.find_peaks)
    featurize.build_matrix = tracer.wrap("featurize", featurize.build_matrix, matrix)
    learn.fit = tracer.wrap(lambda kind, *a, **k: f"learn.fit.{kind}", learn.fit, fitted)
    learn.Model.predict = tracer.wrap("learn.predict", learn.Model.predict, predicted)
    rfe.rank_features = tracer.wrap("rfe.rank", rfe.rank_features)
    rfe.select_best_k = tracer.wrap("rfe", rfe.select_best_k)
    rfe.best_subset_for_split = tracer.wrap("rfe", rfe.best_subset_for_split)
    for name in ("repeated_split_eval", "kfold_cv", "transfer_eval"):
        setattr(evaluate, name, tracer.wrap("evaluate", getattr(evaluate, name)))
    evaluate.emit_report = tracer.wrap("evaluate.report", evaluate.emit_report)
    return tracer.wrap("cli", cli.main)


def install_checks(tally, corpus_name, seed, expect):
    from chatterkit import cli, peaks, preprocess, transform

    truth = {t.record_id: t for t in corpus.plan(corpus.SPECS[corpus_name], seed)}
    target_rate = expect["target_rate_hz"]

    def passthrough(fn, after):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, *args, **kwargs)
            return result
        return wrapper

    def loaded(ds, *a, **k):
        for rec in ds.records:
            expected = corpus.samples(truth[rec.record_id], seed, corpus_name)
            tally.run("dataset.parsed", checks.parsed_equals_generated,
                      rec.samples, expected)

    def decimated(out, ts, *a, **k):
        tally.run("preprocess.length", checks.decimated_length,
                  ts.samples.size, out.samples.size, out.sample_rate_hz, target_rate)

    def spectrum(seq, ts, *a, **k):
        t = truth[ts.record_id]
        nfft, n = seq.meta["nfft"], ts.samples.size
        tally.run("transform.fft_tone", checks.tone_peak, seq.xs, seq.ys, nfft, n,
                  t.tone_hz, t.amp, t.noise_std)
        tally.run("transform.fft_harmonic", checks.tone_peak, seq.xs, seq.ys, nfft, n,
                  2.0 * t.tone_hz, t.harmonic_amp, t.noise_std, 1.5 * t.tone_hz)
        tally.run("transform.energy", checks.spectral_energy,
                  transform.spectral_energy(seq), ts.samples)

    def acf(seq, ts, *a, **k):
        tally.run("transform.acf", checks.acf_brute_force, seq.ys, ts.samples)

    def found(result, seq, constraints):
        pts = [(p.x, p.y, p.index) for p in result]
        kind = seq.kind.value
        tally.run("peaks.count", checks.peaks_count, pts, expect["n_peaks"])
        tally.run("peaks.sorted", checks.peaks_sorted, pts)
        tally.run("peaks.mpd", checks.peaks_distance, pts, expect["mpd"][kind])
        tally.run("peaks.mph", checks.peaks_height, pts, seq.xs, seq.ys, expect["alpha"])

    cli.load_manifest = passthrough(cli.load_manifest, loaded)
    preprocess.decimate = passthrough(preprocess.decimate, decimated)
    transform.amplitude_spectrum = passthrough(transform.amplitude_spectrum, spectrum)
    transform.autocorrelation = passthrough(transform.autocorrelation, acf)
    peaks.find_peaks = passthrough(peaks.find_peaks, found)
    return cli.main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--mode", choices=("check", "trace"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--corpus", choices=sorted(corpus.SPECS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--expect", help="JSON: target_rate_hz, alpha, n_peaks, mpd by kind")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    if args.mode == "check":
        record = checks.Tally()
        run = install_checks(record, args.corpus, args.seed, json.loads(args.expect))
    else:
        record = Tracer()
        run = install_trace(record)
    code = run(argv)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record.as_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
