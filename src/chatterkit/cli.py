"""Command-line entry point.

Subcommands: synth, features, eval, cv, transfer, rank-report,
dump-transform. Data goes to files or stdout; logs go to stderr. Exit
codes: 0 success, 1 usage/runtime error, 2 report-check failure.
"""

import argparse
import csv
import io
import sys
from dataclasses import asdict, fields

from . import __version__
from . import evaluate, featurize, learn, rfe, synthgen, transform
from .dataset import (atomic_write, check_writable, load_manifest, split_by_config,
                      write_corpus)
from .errors import ChatterKitError


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


def _load(args, cfg, record_ids=None):
    """The records of the --config-id group, or of the whole manifest; each
    record's rate is checked against cfg before any signal is read."""
    config_ids = [args.config_id] if args.config_id else None
    return load_manifest(args.manifest, config_ids, record_ids, cfg.check_rate)


def _matrix(ds, cfg):
    """Feature matrix of a dataset, logging each record it excludes."""
    fm = featurize.build_matrix(ds, cfg)
    for rid, reason in fm.excluded:
        _log(f"excluded {rid}: {reason}")
    return fm


def _features(args):
    """Feature matrix of the --config-id group (or the whole manifest)."""
    cfg = _config(args)
    return _matrix(_load(args, cfg), cfg)


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue())


def cmd_synth(args):
    spec_a, spec_b = synthgen.default_spec_pair(
        seed=args.seed, freq_a=args.freq_a, freq_b=args.freq_b,
        n_per_class=args.n, amp_b=args.amp_b, noise_b=args.noise_b,
    )
    manifest = write_corpus(args.out_dir, synthgen.make_dataset(spec_a, spec_b))
    _log(f"wrote {args.n * 4} records under {args.out_dir}")
    print(manifest)
    return 0


def cmd_features(args):
    fm = _features(args)
    _write_csv(args.out, list(fm.feature_names) + ["label", "config_id"],
               ([repr(float(v)) for v in x] + [int(y), config_id]
                for x, y, config_id in zip(fm.X, fm.y, fm.config_ids)))
    _log(f"wrote {fm.n_rows} x {fm.n_features} matrix to {args.out}")
    return 0


def _report(args, result, summary, check=False):
    """Write the one-result JSON report to --out and log its summary line."""
    evaluate.emit_report([result], args.out)
    _log(summary)
    return evaluate.check_report(args.out) if check else 0


def cmd_eval(args):
    result = evaluate.repeated_split_eval(
        _features(args), args.classifier, use_rfe=args.rfe == "on",
        n_rep=args.reps, test_frac=args.test_frac, seed=args.seed,
        config_id=args.config_id or "",
    )
    return _report(args, result, f"{args.classifier} rfe={args.rfe}: "
                   f"test {result.mean_test:.3f} +- {result.std_test:.3f}", args.check)


def cmd_cv(args):
    result = evaluate.kfold_cv(
        _features(args), args.classifier, use_rfe=args.rfe == "on",
        k=args.folds, seed=args.seed, config_id=args.config_id or "",
    )
    return _report(args, result, f"{args.classifier} {args.folds}-fold: "
                   f"test {result.mean_test:.3f} +- {result.std_test:.3f}")


def cmd_transfer(args):
    cfg = _config(args)
    config_ids = (args.source_config, args.target_config)
    groups = split_by_config(load_manifest(args.manifest, config_ids,
                                           check_rate=cfg.check_rate))
    source, target = (_matrix(groups[cid], cfg) for cid in config_ids)
    result = evaluate.transfer_eval(
        source, target, args.classifier, use_rfe=args.rfe == "on", seed=args.seed
    )
    return _report(args, result, f"{args.classifier} {args.source_config}->"
                   f"{args.target_config}: test {result.test_accuracy:.3f}")


def cmd_rank_report(args):
    fm = _features(args)
    subsets = []
    for train_idx, test_idx in evaluate.repeated_splits(fm.y, args.reps, seed=args.seed):
        subsets.append(rfe.best_subset_for_split(fm.X, fm.y, args.classifier, train_idx,
                                                 [(train_idx, test_idx)], seed=args.seed))
    ranking = rfe.rank_features(fm.X, fm.y, args.classifier, seed=args.seed)
    counts = evaluate.ranking_frequency(subsets, fm.n_features)
    rank_of = {idx: pos + 1 for pos, idx in enumerate(ranking.order)}
    _write_csv(args.out, ["feature_name", "rank", "selection_count"],
               ([name, rank_of[i], int(counts[i])]
                for i, name in enumerate(fm.feature_names)))
    _log(f"wrote ranking report to {args.out}")
    return 0


def cmd_dump_transform(args):
    cfg = _config(args)
    rec = cfg.to_working_rate(_load(args, cfg, [args.record_id]).records[0])
    fn = {
        "fft": transform.amplitude_spectrum,
        "psd": transform.power_spectral_density,
        "acf": transform.autocorrelation,
    }[args.kind]
    seq = fn(rec)
    _write_csv(args.out, ["x", "y"],
               ([repr(float(x)), repr(float(y))] for x, y in zip(seq.xs, seq.ys)))
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

    def data_parser(name, help_text, fn, peak_flags=True):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--manifest", required=True)
        _add_pipeline_flags(q, peak_flags)
        q.set_defaults(fn=fn)
        return q

    def add_model_flags(q, rfe_flag=True):
        q.add_argument("--classifier", choices=learn.KINDS, default="rf")
        if rfe_flag:
            q.add_argument("--rfe", choices=("on", "off"), default="off")
        q.add_argument("--seed", type=int, default=0)

    p = data_parser("features", "dump the feature matrix as CSV", cmd_features)
    p.add_argument("--config-id", default=None)
    p.add_argument("--features-out", dest="out", metavar="FEATURES_OUT", required=True)

    p = data_parser("eval", "repeated stratified-split evaluation", cmd_eval)
    add_model_flags(p)
    p.add_argument("--config-id", default=None)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--test-frac", type=float, default=0.33)
    p.add_argument("--out", required=True)
    p.add_argument("--check", action="store_true",
                   help="validate the emitted report (exit 2 on failure)")

    p = data_parser("cv", "stratified k-fold cross-validation", cmd_cv)
    add_model_flags(p)
    p.add_argument("--config-id", default=None)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--out", required=True)

    p = data_parser("transfer", "train on one config, test on another", cmd_transfer)
    add_model_flags(p)
    p.add_argument("--source-config", required=True)
    p.add_argument("--target-config", required=True)
    p.add_argument("--out", required=True)

    p = data_parser("rank-report", "RFE feature ranking and selection counts",
                    cmd_rank_report)
    add_model_flags(p, rfe_flag=False)
    p.add_argument("--config-id", default=None)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--out", required=True)

    p = data_parser("dump-transform", "emit one transform as x,y CSV",
                    cmd_dump_transform, peak_flags=False)
    p.add_argument("--config-id", default=None)
    p.add_argument("--record-id", required=True)
    p.add_argument("--kind", choices=("fft", "psd", "acf"), required=True)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map to the documented code 1
        return 0 if exc.code == 0 else 1
    try:
        if args.command != "synth":  # fail before the work, not after it
            check_writable(args.out)
        return args.fn(args)
    except ChatterKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
