"""Command-line front end for the trial classification pipeline.

Subcommands: synth, decompose, features, evaluate, sweep, solver-bench.
Every command is deterministic given its flags (randomness flows through
the explicit seeds), echoes its effective configuration into the output
artifact, and writes files atomically. Exit codes: 0 success, 1 usage
error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys
import time

import numpy as np

from .dataio import (
    FilterSpec,
    SynthConfig,
    _fmt,
    config_note,
    load_features_csv,
    load_trials_csv,
    save_features_csv,
    save_report,
    save_trials_csv,
    synth_scp,
    lowpass_filter,
    write_csv,
)
from .elm import TrainConfig
from .errors import (
    InvalidConfig,
    NotFound,
    NumericalFailure,
    PipelineError,
)
from .evaluation import cross_validate
from .hht import EmdConfig, emd, trial_feature_vector
from .solvers import KERNELS, SolverKind, solve_output_weights

_PROG = "hhtelm"

# solver-bench times this many warm calls per kernel and size and reports
# their median.
_BENCH_REPEATS = 7


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _echo(args, text):
    if not args.quiet:
        print(text)


def _common_flags(sub):
    sub.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    sub.add_argument("--out", required=True, help="output path (directory for decompose)")
    sub.add_argument("--quiet", action="store_true", help="suppress log lines")


def _filter_flags(sub):
    sub.add_argument("--cutoff", type=float, default=10.0, help="low-pass cutoff in Hz")
    sub.add_argument("--taps", type=int, default=257, help="FIR tap count (odd, >= 33)")


def _emd_flags(sub):
    sub.add_argument("--sd-threshold", type=float, default=0.2)
    sub.add_argument("--max-siftings", type=int, default=100)
    sub.add_argument("--max-imfs", type=int, default=6)


def _train_flags(sub):
    sub.add_argument("--kernel", choices=KERNELS, default="hessenberg")
    sub.add_argument("--ridge", type=float, default=1e-3)
    sub.add_argument("--k", type=int, default=5, help="cross-validation folds")


def build_parser():
    parser = _Parser(prog=_PROG, description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="generate synthetic trials")
    synth.add_argument("--n-per-class", type=int, default=200)
    synth.add_argument("--drift", type=float, default=10.0)
    synth.add_argument("--noise", type=float, default=1.0)
    synth.add_argument("--alpha", type=float, default=2.0)
    synth.add_argument("--fs", type=float, default=256.0)
    _common_flags(synth)
    synth.set_defaults(func=cmd_synth)

    decompose = commands.add_parser("decompose", help="filter and decompose trials")
    decompose.add_argument("--in", dest="input", required=True, help="trials CSV")
    decompose.add_argument(
        "--trial-id", action="append", default=None, help="restrict to this trial id (repeatable)"
    )
    _filter_flags(decompose)
    _emd_flags(decompose)
    _common_flags(decompose)
    decompose.set_defaults(func=cmd_decompose)

    features = commands.add_parser("features", help="trials CSV -> feature CSV")
    features.add_argument("--in", dest="input", required=True, help="trials CSV")
    _filter_flags(features)
    _emd_flags(features)
    _common_flags(features)
    features.set_defaults(func=cmd_features)

    evaluate = commands.add_parser("evaluate", help="cross-validate on a feature CSV")
    evaluate.add_argument("--features", required=True, help="feature CSV")
    evaluate.add_argument("--layers", default="40,30", help="comma-separated widths")
    _train_flags(evaluate)
    _common_flags(evaluate)
    evaluate.set_defaults(func=cmd_evaluate)

    sweep = commands.add_parser("sweep", help="grid search over layer sizes")
    sweep.add_argument("--features", required=True, help="feature CSV")
    sweep.add_argument("--min", type=int, default=100)
    sweep.add_argument("--max", type=int, default=500)
    sweep.add_argument("--step", type=int, default=10)
    sweep.add_argument("--depth", type=int, choices=(2, 3), default=2)
    sweep.add_argument("--budget", type=int, default=None, help="evaluate at most this many configs")
    _train_flags(sweep)
    _common_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    bench = commands.add_parser("solver-bench", help="time the solver kernels")
    bench.add_argument("--sizes", default="50,100,200", help="comma-separated system sizes")
    bench.add_argument("--ridge", type=float, default=1e-3)
    _common_flags(bench)
    bench.set_defaults(func=cmd_solver_bench)

    return parser


def cmd_synth(args):
    cfg = SynthConfig(
        n_per_class=args.n_per_class,
        drift_amplitude=args.drift,
        noise_sigma=args.noise,
        alpha_amplitude=args.alpha,
        fs=args.fs,
        seed=args.seed,
    )
    trials = synth_scp(cfg)
    save_trials_csv(trials, args.out, config_note=config_note("synth", cfg))
    _echo(args, f"synth: wrote {len(trials.trials)} trials to {args.out}")
    return 0


def _pipeline_configs(args):
    return (
        FilterSpec(cutoff=args.cutoff, taps=args.taps),
        EmdConfig(
            sd_threshold=args.sd_threshold,
            max_siftings=args.max_siftings,
            max_imfs=args.max_imfs,
        ),
    )


def cmd_decompose(args):
    spec, emd_cfg = _pipeline_configs(args)
    trial_set = load_trials_csv(args.input)
    by_id = {trial.trial_id: trial for trial in trial_set.trials}
    if args.trial_id:
        missing = [tid for tid in args.trial_id if tid not in by_id]
        if missing:
            raise NotFound(f"trial id(s) {missing} not present in {args.input}")
        selected = [by_id[tid] for tid in args.trial_id]
    else:
        selected = trial_set.trials
    note = config_note("decompose", spec, emd_cfg, seed=args.seed)
    _echo(
        args,
        f"decompose: cutoff={spec.cutoff:g} Hz taps={spec.taps} "
        f"sd_threshold={emd_cfg.sd_threshold:g} -> {len(selected)} trial(s)",
    )
    os.makedirs(args.out, exist_ok=True)
    for trial in selected:
        filtered = lowpass_filter(trial.signal(), spec)
        modes = emd(filtered, emd_cfg)
        columns = [f"imf_{i + 1}" for i in range(len(modes.imfs))] + ["residual"]
        rows = ([_fmt(v) for v in row] for row in zip(*modes.imfs, modes.residual))
        write_csv(os.path.join(args.out, f"{trial.trial_id}.csv"), columns, rows, note)
    _echo(args, f"decompose: wrote {len(selected)} file(s) under {args.out}")
    return 0


def cmd_features(args):
    spec, emd_cfg = _pipeline_configs(args)
    trial_set = load_trials_csv(args.input)
    rows = []
    labels = []
    layout = None
    for trial in trial_set.trials:
        filtered = lowpass_filter(trial.signal(), spec)
        vector = trial_feature_vector(filtered, emd_cfg)
        rows.append(vector.values)
        labels.append(trial.label)
        layout = vector.layout
    if layout is None:
        raise NotFound(f"{args.input} contains no trials")
    note = config_note("features", spec, emd_cfg, seed=args.seed)
    save_features_csv(np.vstack(rows), layout, labels, args.out, config_note=note)
    _echo(
        args,
        f"features: cutoff={spec.cutoff:g} Hz, {len(rows)} trials x {len(layout)} features -> {args.out}",
    )
    return 0


def _parse_layers(text):
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise InvalidConfig(f"bad --layers value {text!r}: {exc}") from exc
    if not sizes:
        raise InvalidConfig("--layers must name at least one width")
    return sizes


def cmd_evaluate(args):
    layer_sizes = _parse_layers(args.layers)
    kernel = SolverKind(variant=args.kernel, ridge=args.ridge)
    train_config = TrainConfig(layer_sizes=layer_sizes, kernel=kernel, seed=args.seed)
    features, _, labels = load_features_csv(args.features)
    report = cross_validate(features, labels, train_config, k=args.k, seed=args.seed)
    save_report(report, args.out)
    mean = report.mean

    def show(value):
        return "undefined" if value is None else f"{value:.2f}"

    _echo(
        args,
        "evaluate: mean accuracy "
        f"{show(mean.accuracy)} / sensitivity {show(mean.sensitivity)} / "
        f"selectivity {show(mean.selectivity)} over {args.k} folds -> {args.out}",
    )
    return 0


def cmd_sweep(args):
    if args.min < 1 or args.max < args.min or args.step < 1:
        raise InvalidConfig("sweep needs 1 <= min <= max and step >= 1")
    if args.budget is not None and args.budget < 1:
        raise InvalidConfig("--budget must be >= 1")
    kernel = SolverKind(variant=args.kernel, ridge=args.ridge)
    features, _, labels = load_features_csv(args.features)
    widths = range(args.min, args.max + 1, args.step)
    grid = list(itertools.product(widths, repeat=args.depth))
    if args.budget is not None and args.budget < len(grid):
        rng = np.random.default_rng(args.seed)
        picks = rng.choice(len(grid), size=args.budget, replace=False)
        grid = [grid[i] for i in sorted(picks)]
    results = []
    for sizes in grid:
        config = TrainConfig(layer_sizes=sizes, kernel=kernel, seed=args.seed)
        report = cross_validate(features, labels, config, k=args.k, seed=args.seed)
        results.append((sizes, report.mean, report.std))
    results.sort(
        key=lambda item: (-(item[1].accuracy if item[1].accuracy is not None else -1.0), item[0])
    )
    note = config_note(
        "sweep",
        min=args.min,
        max=args.max,
        step=args.step,
        depth=args.depth,
        budget=args.budget,
        kernel=args.kernel,
        ridge=args.ridge,
        k=args.k,
        seed=args.seed,
    )

    def cell(value):
        return "" if value is None else _fmt(value)

    rows = [
        ["-".join(str(s) for s in sizes), cell(mean.accuracy), cell(std.accuracy),
         cell(mean.sensitivity), cell(mean.selectivity)]
        for sizes, mean, std in results
    ]
    header = ["layers", "accuracy_mean", "accuracy_std", "sensitivity_mean", "selectivity_mean"]
    write_csv(args.out, header, rows, note)
    best_sizes, best_mean, _ = results[0]
    best_acc = "undefined" if best_mean.accuracy is None else f"{best_mean.accuracy:.2f}"
    _echo(
        args,
        f"sweep: {len(results)} config(s), best layers "
        f"{'-'.join(str(s) for s in best_sizes)} at mean accuracy {best_acc} -> {args.out}",
    )
    return 0


def cmd_solver_bench(args):
    try:
        sizes = [int(part) for part in args.sizes.split(",") if part.strip()]
    except ValueError as exc:
        raise InvalidConfig(f"bad --sizes value {args.sizes!r}: {exc}") from exc
    if not sizes or any(s < 4 for s in sizes):
        raise InvalidConfig("--sizes needs integers >= 4")
    if not args.ridge > 0.0:
        raise InvalidConfig("--ridge must be > 0 for the Gram kernels")
    rng = np.random.default_rng(args.seed)
    problems = {}
    for size in sizes:
        h = rng.standard_normal((size, max(2, size // 2)))
        t = rng.standard_normal((size, 2))
        problems[size] = (h, t)
    rows = []
    for variant in KERNELS:
        kind = SolverKind(variant=variant, ridge=args.ridge)
        for size in sizes:
            h, t = problems[size]
            reference = solve_output_weights(h, t, SolverKind(variant="svd", ridge=args.ridge))
            beta = solve_output_weights(h, t, kind)  # untimed warm-up call
            times = []
            for _ in range(_BENCH_REPEATS):
                start = time.perf_counter()
                solve_output_weights(h, t, kind)
                times.append(time.perf_counter() - start)
            elapsed = float(np.median(times))
            deviation = np.linalg.norm(beta - reference) / max(np.linalg.norm(reference), 1e-30)
            rows.append([variant, str(size), _fmt(elapsed), _fmt(deviation)])
            _echo(
                args,
                f"solver-bench: {variant} size={size} {elapsed * 1e3:.2f} ms deviation={deviation:.2e}",
            )
    note = config_note("solver-bench", sizes=sizes, ridge=args.ridge, seed=args.seed)
    write_csv(args.out, ["kernel", "size", "seconds", "deviation"], rows, note)
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except InvalidConfig as exc:
        print(f"{_PROG}: usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"{_PROG}: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (PipelineError, OSError) as exc:
        print(f"{_PROG}: data error: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
