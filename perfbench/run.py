"""chatterkit benchmark: run one workload through the CLI, check it, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
The workload's corpus comes from perfbench/corpus.py, seeded by --seed,
and is written under ./.perfbench_work/, which is removed on exit.

Each run
  1. writes the corpus;
  2. makes one untimed warm-up pass: every CLI call of the workload once,
     inside perfbench/probe.py, which checks each layer's output against
     the generator and the method's properties;
  3. repeats rounds while the next one, at the median round's length,
     would end less than half a round past --seconds (at least one
     round, two with --trace 1). A round is one `chatterkit --version`
     (a start-up sample) and one pass over the workload's CLI calls,
     each a separate process, one at a time, with the host's speed
     sampled while it runs (perfbench/hostspeed.py). Every report is
     checked and compared byte for byte with the warm-up's. With
     --trace 1, each round adds one traced pass (the same calls through
     probe.py in trace mode), alternating the order.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1). Medians are over the passes, or the start-up
samples, of the run; end-to-end times are then scaled by the host's
speed over the run (perfbench/hostspeed.py).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import corpus
import hostspeed

HERE = Path(__file__).resolve().parent
# With --trace 1, traced and untraced passes alternate in order; two rounds
# at least, so that drift within the run falls on both kinds of pass alike.
MIN_TRACED_ROUNDS = 2
# One thread per child: the host has 2 CPUs shared with other tenants, and
# a BLAS pool would make timings depend on who else is running.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TARGET_RATE_HZ = 10000.0
ALPHA = 0.1
MPD = {"fft": 500, "acf": 1000, "psd": 0}
# rfe_trees: rf's test accuracy must clear chance by a third of the Bayes
# rate's margin over chance (0.8 - 0.5); one half-and-half split leaves 20
# test rows.
RFE_TREES_FLOOR = 0.5 + (corpus.rfe_trees_bayes_accuracy() - 0.5) / 3
# transfer_linear: config A's classes have disjoint tones and amplitudes, so
# they are linearly separable; a linear learner fits its source rows.
SOURCE_FLOOR = 0.9

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("dataset.load_s", "s"), ("dataset.loads", "count"), ("dataset.samples_parsed", "count"),
    ("preprocess.decimate_s", "s"), ("preprocess.records_decimated", "count"),
    ("transform.fft_s", "s"), ("transform.psd_s", "s"), ("transform.acf_s", "s"),
    ("peaks.find_s", "s"), ("peaks.calls", "count"),
    ("featurize.self_s", "s"), ("featurize.rows", "count"), ("featurize.excluded", "count"),
    ("learn.fit_s.svm", "s"), ("learn.fit_s.lr", "s"), ("learn.fit_s.rf", "s"),
    ("learn.predict_s", "s"), ("learn.fits", "count"),
    ("learn.predict_rows", "count"), ("trees.nodes", "count"),
    ("rfe.self_s", "s"), ("rfe.rankings", "count"),
    ("evaluate.self_s", "s"), ("evaluate.report_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_s", "s"), ("host.speed_s", "s"),
)


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a workload and what its report must satisfy."""

    name: str
    args: tuple  # CLI arguments after the subcommand's --manifest and --out
    command: str
    classifier: str
    rfe: bool
    n_rep: int = None
    floor: tuple = None  # (report key, lowest acceptable value)

    def argv(self, manifest, out):
        return [self.command, "--manifest", str(manifest), "--out", str(out), *self.args]


@dataclass(frozen=True)
class Workload:
    spec: corpus.CorpusSpec
    n_peaks: int
    calls: tuple


def _peak_flags(n_peaks):
    return ("--n-peaks", str(n_peaks), "--alpha", str(ALPHA),
            "--mpd-fft", str(MPD["fft"]), "--mpd-acf", str(MPD["acf"]),
            "--mpd-psd", str(MPD["psd"]), "--target-rate-hz", str(TARGET_RATE_HZ),
            "--seed", "0")


def _eval(classifier, rfe, n_peaks, reps, test_frac, *extra, floor=None):
    args = ("--classifier", classifier, "--rfe", "on" if rfe else "off",
            "--reps", str(reps), "--test-frac", str(test_frac), *extra,
            *_peak_flags(n_peaks))
    return Call(f"eval_{classifier}", args, "eval", classifier, rfe, n_rep=reps, floor=floor)


def _transfer(classifier, n_peaks):
    args = ("--source-config", "A", "--target-config", "B", "--classifier", classifier,
            "--rfe", "on", *_peak_flags(n_peaks))
    return Call(f"transfer_{classifier}", args, "transfer", classifier, True,
                floor=("train_accuracy", SOURCE_FLOOR))


# One call per workload whose work hardly depends on the seed. gb and lr
# are left out of rfe_trees and transfer_linear: over seeds, gb's split
# nodes varied 12k-29k and lr's fit time 0.9-2.1 s (iterations to
# convergence), which made the spread between runs a matter of the seed.
WORKLOADS = {
    "ingest_160k": Workload(corpus.INGEST_160K, 2, (
        _eval("lr", False, 2, 10, 0.33, "--config-id", "A"),
    )),
    "rfe_trees": Workload(corpus.RFE_TREES, 5, (
        _eval("rf", True, 5, 1, 0.5, floor=("mean_test", RFE_TREES_FLOOR)),
    )),
    "transfer_linear": Workload(corpus.TRANSFER_LINEAR, 5, (
        _transfer("svm", 5),
    )),
}


@dataclass(frozen=True)
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(args, env, log):
    """Run `python3 ARGS` to completion; wall time, CPU time and peak RSS from wait4."""
    argv = [sys.executable, *map(str, args)]
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - t0
    return Proc(os.waitstatus_to_exitcode(status), wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def read_bytes(path):
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        return b""


def spawn_fresh(args, env, log, outs):
    """spawn(args) with the files `outs` removed first; the process and what it wrote there.

    A call that exits 0 without writing one of them reads it as empty,
    not as the file an earlier call left.
    """
    for out in outs:
        Path(out).unlink(missing_ok=True)
    proc = spawn(args, env, log)
    return proc, [read_bytes(out) for out in outs]


def check_report(tally, call, raw, reference):
    tally.run(f"{call.name}.range", checks.accuracies_in_range, raw)
    tally.run(f"{call.name}.request", checks.report_matches_request,
              raw, call.classifier, call.rfe, call.n_rep)
    if call.floor:
        tally.run(f"{call.name}.floor", checks.accuracy_at_least, raw, *call.floor)
    if reference is not None:
        tally.run(f"{call.name}.identical", checks.identical, raw, reference)


def _sum_traces(traces):
    out = {"total": {}, "self": {}, "calls": {}, "counts": {}}
    for tr in traces:
        for part, values in tr.items():
            for key, val in values.items():
                out[part][key] = out[part].get(key, 0) + val
    return out


def layer_metrics(tr):
    """Per-layer values of one traced pass (summed over its calls)."""
    def total(key):
        return tr["total"].get(key, 0)

    def own(key):
        return tr["self"].get(key, 0)

    def calls(key):
        return tr["calls"].get(key, 0)

    def counts(key):
        return tr["counts"].get(key, 0)

    kinds = ("svm", "lr", "rf", "gb")
    values = {
        "dataset.load_s": total("dataset.load"),
        "dataset.loads": calls("dataset.load"),
        "dataset.samples_parsed": counts("samples_parsed"),
        "preprocess.decimate_s": total("preprocess.decimate"),
        "preprocess.records_decimated": calls("preprocess.decimate"),
        "transform.fft_s": total("transform.fft"),
        "transform.psd_s": total("transform.psd"),
        "transform.acf_s": total("transform.acf"),
        "peaks.find_s": total("peaks.find"),
        "peaks.calls": calls("peaks.find"),
        "featurize.self_s": own("featurize"),
        "featurize.rows": counts("rows"),
        "featurize.excluded": counts("excluded"),
        "learn.predict_s": total("learn.predict"),
        "learn.fits": sum(calls(f"learn.fit.{k}") for k in kinds),
        "learn.predict_rows": counts("predict_rows"),
        "trees.nodes": counts("tree_nodes"),
        "rfe.self_s": own("rfe") + own("rfe.rank"),
        "rfe.rankings": calls("rfe.rank"),
        "evaluate.self_s": own("evaluate"),
        "evaluate.report_s": total("evaluate.report"),
        "cli.self_s": own("cli"),
    }
    for k in kinds:
        values[f"learn.fit_s.{k}"] = total(f"learn.fit.{k}")
    return values


def run(workload, seed, seconds, trace, work):
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    tally = checks.Tally()
    manifest = corpus.write(workload.spec, seed, work / "corpus")
    expect = json.dumps({"target_rate_hz": TARGET_RATE_HZ, "alpha": ALPHA,
                         "n_peaks": workload.n_peaks, "mpd": MPD})
    log = work / "stderr.log"
    report = {c.name: work / f"{c.name}.json" for c in workload.calls}

    def failed_call(proc, what):
        if proc.code != 0:
            print(f"{what} exited {proc.code}:\n{read_bytes(log).decode()[-2000:]}",
                  file=sys.stderr)
        tally.run(f"{what}.exit", checks.exit_code, proc.code)

    # Untimed warm-up pass, with every layer's output checked in process.
    reference = {}
    for call in workload.calls:
        result = work / f"check-{call.name}.json"
        proc, (raw, reference[call.name]) = spawn_fresh(
            [HERE / "probe.py", "--mode", "check", "--corpus", workload.spec.name,
             "--seed", seed, "--expect", expect, "--out", result, "--",
             *call.argv(manifest, report[call.name])],
            env, log, [result, report[call.name]])
        failed_call(proc, call.name)
        if raw:
            tally.add(json.loads(raw))
        check_report(tally, call, reference[call.name], None)

    setups, hosts = [], []

    def timed(args, outs=()):
        """spawn_fresh(args) with the host's speed sampled while it runs."""
        with hostspeed.HostSpeed() as host:
            proc, written = spawn_fresh(args, env, log, outs)
        hosts.extend(host.times)
        return proc, written

    def plain_pass():
        """One start-up sample, then the workload's calls; unscaled times and the largest RSS."""
        proc, _ = timed(["-m", "chatterkit.cli", "--version"])
        failed_call(proc, "version")
        setups.append(proc.wall_s)
        wall = cpu = rss = 0.0
        for call in workload.calls:
            proc, (raw,) = timed(
                ["-m", "chatterkit.cli", *call.argv(manifest, report[call.name])],
                [report[call.name]])
            failed_call(proc, call.name)
            check_report(tally, call, raw, reference[call.name])
            wall += proc.wall_s
            cpu += proc.cpu_s
            rss = max(rss, proc.rss_mb)
        return wall, cpu, rss

    traced_walls, layers = [], []

    def traced_pass():
        wall, traces = 0.0, []
        for call in workload.calls:
            result = work / f"trace-{call.name}.json"
            proc, (raw, report_raw) = spawn_fresh(
                [HERE / "probe.py", "--mode", "trace", "--out", result, "--",
                 *call.argv(manifest, report[call.name])],
                env, log, [result, report[call.name]])
            failed_call(proc, call.name)
            check_report(tally, call, report_raw, reference[call.name])
            wall += proc.wall_s
            traces.append(json.loads(raw) if raw else {})
        traced_walls.append(wall)
        layers.append(layer_metrics(_sum_traces(traces)))

    walls, cpus, rss = [], [], 0.0
    rounds = []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        if trace and len(rounds) % 2:
            traced_pass()
        w, c, r = plain_pass()
        walls.append(w)
        cpus.append(c)
        rss = max(rss, r)
        if trace and not len(rounds) % 2:
            traced_pass()
        rounds.append(time.perf_counter() - t_round)
        if trace and len(rounds) < MIN_TRACED_ROUNDS:
            continue
        # Stop where the run ends nearest to --seconds: whole rounds only.
        if time.perf_counter() - t_start + statistics.median(rounds) / 2 > seconds:
            break

    median = statistics.median
    if trace:
        values = {name: median(layer[name] for layer in layers)
                  for name, _ in PER_LAYER if name in layers[0]}
        values["trace.overhead_s"] = median(traced_walls) - median(walls)
        values["host.speed_s"] = median(hosts)
        units = PER_LAYER
    else:
        scale = hostspeed.scale(median(hosts))
        values = {"setup_s": median(setups) * scale, "wall_s": median(walls) * scale,
                  "cpu_s": median(cpus) * scale, "peak_rss_mb": rss}
        units = END_TO_END
    print(f"unscaled: median pass {median(walls):.4f} s, median start-up {median(setups):.4f} s; "
          f"median host-speed sample {median(hosts) * 1000:.4f} ms; passes: "
          + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    metrics = {name: {"value": float(values[name]) if unit == "s" else values[name],
                      "unit": unit} for name, unit in units}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics,
            "messages": tally.messages}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind as on Ctrl-C: spawn() kills and reaps its child and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (Path.cwd() / "src" / "chatterkit" / "cli.py").is_file():
        print("perfbench: run from a chatterkit checkout; ./src/chatterkit/cli.py "
              "not found", file=sys.stderr)
        return 2
    work_root = Path.cwd() / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    for msg in result.pop("messages"):
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
