"""Command-line entry point.

Subcommands: synth, features, eval, cv, transfer, rank-report,
dump-transform. Data goes to files or stdout; logs go to stderr. Exit
codes: 0 success, 1 usage/runtime error, 2 report-check failure.
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, fields

from . import __version__
from . import evaluate, featurize, learn, rfe, synthgen, transform
from .dataset import load_manifest, split_by_config
from .errors import ChatterKitError
from .evaluate import _atomic_write

def _log(msg):
    print(msg, file=sys.stderr)


def _add_pipeline_flags(p, peak_flags):
    """Flags named after PipelineConfig fields, defaulting to its defaults."""
    if peak_flags:
        p.add_argument("--alpha", type=float, help="MPH fraction in [0,1]")
        p.add_argument("--n-peaks", type=int, help="peaks per transform")
        p.add_argument("--mpd-fft", type=int)
        p.add_argument("--mpd-acf", type=int)
        p.add_argument("--mpd-psd", type=int)
    p.add_argument("--target-rate-hz", type=float)
    p.add_argument("--cutoff-hz", type=float,
                   help="anti-alias cutoff (default 0.9 x target Nyquist)")
    p.add_argument("--filter-order", type=int)
    p.set_defaults(**asdict(featurize.PipelineConfig()))


def _config(args):
    names = (f.name for f in fields(featurize.PipelineConfig))
    return featurize.PipelineConfig(**{name: getattr(args, name) for name in names})


def _load(args, record_ids=None):
    """The records of the --config-id group, or of the whole manifest."""
    config_ids = [args.config_id] if args.config_id else None
    return load_manifest(args.manifest, config_ids, record_ids)


def _features(args):
    """Feature matrix of the --config-id group (or the whole manifest)."""
    return featurize.build_matrix(_load(args), _config(args))


def cmd_synth(args):
    spec_a, spec_b = synthgen.default_spec_pair(
        seed=args.seed, freq_a=args.freq_a, freq_b=args.freq_b,
        n_per_class=args.n, amp_b=args.amp_b, noise_b=args.noise_b,
    )
    manifest = synthgen.write_corpus(args.out_dir, spec_a, spec_b)
    _log(f"wrote {args.n * 4} records under {args.out_dir}")
    print(manifest)
    return 0


def cmd_features(args):
    fm = _features(args)
    for rid, reason in fm.excluded:
        _log(f"excluded {rid}: {reason}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(fm.feature_names) + ["label", "config_id"])
    for i in range(fm.n_rows):
        writer.writerow(
            [repr(float(v)) for v in fm.X[i]] + [int(fm.y[i]), fm.config_ids[i]]
        )
    _atomic_write(args.features_out, buf.getvalue())
    _log(f"wrote {fm.n_rows} x {fm.n_features} matrix to {args.features_out}")
    return 0


def _check_report(path):
    """Minimal schema check on an emitted report; exit code 2 on failure."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        rows = doc.get("results") if isinstance(doc, dict) else None
        if not isinstance(rows, list) or not rows:
            raise ValueError(f"'results' is {rows!r}, expected a non-empty list")
        for i, row in enumerate(rows):
            for key in ("classifier", "rfe"):
                if key not in row:
                    raise ValueError(f"results[{i}] has no {key!r}")
            for key, val in row.items():
                if key.startswith(("mean_", "std_")) or key.endswith("accuracy"):
                    if not (isinstance(val, (int, float)) and 0.0 <= val <= 1.0):
                        raise ValueError(f"results[{i}][{key!r}] is {val!r}, "
                                         "expected a number in [0, 1]")
    except Exception as exc:
        _log(f"report check failed: {exc}")
        return 2
    return 0


def cmd_eval(args):
    fm = _features(args)
    result = evaluate.repeated_split_eval(
        fm, args.classifier, use_rfe=args.rfe == "on",
        n_rep=args.reps, test_frac=args.test_frac, seed=args.seed,
        config_id=args.config_id or "",
    )
    evaluate.emit_report([result], args.out, fmt="json")
    _log(f"{args.classifier} rfe={args.rfe}: "
         f"test {result.mean_test:.3f} +- {result.std_test:.3f}")
    if args.check:
        return _check_report(args.out)
    return 0


def cmd_cv(args):
    fm = _features(args)
    result = evaluate.kfold_cv(
        fm, args.classifier, use_rfe=args.rfe == "on",
        k=args.folds, seed=args.seed, config_id=args.config_id or "",
    )
    evaluate.emit_report([result], args.out, fmt="json")
    _log(f"{args.classifier} {args.folds}-fold: "
         f"test {result.mean_test:.3f} +- {result.std_test:.3f}")
    return 0


def cmd_transfer(args):
    config_ids = (args.source_config, args.target_config)
    groups = split_by_config(load_manifest(args.manifest, config_ids))
    cfg = _config(args)
    source, target = (featurize.build_matrix(groups[cid], cfg) for cid in config_ids)
    result = evaluate.transfer_eval(
        source, target, args.classifier, use_rfe=args.rfe == "on", seed=args.seed
    )
    evaluate.emit_report([result], args.out, fmt="json")
    _log(f"{args.classifier} {args.source_config}->{args.target_config}: "
         f"test {result.test_accuracy:.3f}")
    return 0


def cmd_rank_report(args):
    fm = _features(args)
    ranking = rfe.rank_features(fm.X, fm.y, args.classifier, seed=args.seed)
    result = evaluate.repeated_split_eval(
        fm, args.classifier, use_rfe=True, n_rep=args.reps, seed=args.seed,
        config_id=args.config_id or "",
    )
    counts = evaluate.ranking_frequency(result.selected_subsets, fm.n_features)
    rank_of = {idx: pos + 1 for pos, idx in enumerate(ranking.order)}
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["feature_name", "rank", "selection_count"])
    for i, name in enumerate(fm.feature_names):
        writer.writerow([name, rank_of[i], int(counts[i])])
    _atomic_write(args.out, buf.getvalue())
    _log(f"wrote ranking report to {args.out}")
    return 0


def cmd_dump_transform(args):
    rec = _config(args).to_working_rate(_load(args, [args.record_id]).records[0])
    fn = {
        "fft": transform.amplitude_spectrum,
        "psd": transform.power_spectral_density,
        "acf": transform.autocorrelation,
    }[args.kind]
    seq = fn(rec)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", "y"])
    for x, y in zip(seq.xs, seq.ys):
        writer.writerow([repr(float(x)), repr(float(y))])
    _atomic_write(args.out, buf.getvalue())
    _log(f"wrote {len(seq)} {args.kind} points to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chatterkit",
        description="Peak-feature chatter classification pipeline.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic two-config corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--freq-a", type=float, default=800.0)
    p.add_argument("--freq-b", type=float, default=1600.0)
    p.add_argument("--n", type=int, default=30, help="records per class per config")
    p.add_argument("--amp-b", type=float, default=None)
    p.add_argument("--noise-b", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    def experiment_parser(name, help_text):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--manifest", required=True)
        q.add_argument("--classifier", choices=learn.KINDS, default="rf")
        q.add_argument("--rfe", choices=("on", "off"), default="off")
        q.add_argument("--seed", type=int, default=0)
        _add_pipeline_flags(q, peak_flags=True)
        return q

    p = experiment_parser("features", "dump the feature matrix as CSV")
    p.add_argument("--config-id", default=None)
    p.add_argument("--features-out", required=True)
    p.set_defaults(fn=cmd_features)

    p = experiment_parser("eval", "repeated stratified-split evaluation")
    p.add_argument("--config-id", default=None)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--test-frac", type=float, default=0.33)
    p.add_argument("--out", required=True)
    p.add_argument("--check", action="store_true",
                   help="validate the emitted report (exit 2 on failure)")
    p.set_defaults(fn=cmd_eval)

    p = experiment_parser("cv", "stratified k-fold cross-validation")
    p.add_argument("--config-id", default=None)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_cv)

    p = experiment_parser("transfer", "train on one config, test on another")
    p.add_argument("--source-config", required=True)
    p.add_argument("--target-config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_transfer)

    p = experiment_parser("rank-report", "feature ranking and selection counts")
    p.add_argument("--config-id", default=None)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_rank_report)

    p = sub.add_parser("dump-transform", help="emit one transform as x,y CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config-id", default=None)
    p.add_argument("--record-id", required=True)
    p.add_argument("--kind", choices=("fft", "psd", "acf"), required=True)
    p.add_argument("--out", required=True)
    _add_pipeline_flags(p, peak_flags=False)
    p.set_defaults(fn=cmd_dump_transform)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map to the documented code 1
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except ChatterKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
