"""Command-line front end for the trial classification pipeline.

Subcommands: synth, decompose, features, evaluate, sweep.
Every command is deterministic given its flags (randomness flows through
the explicit seeds), echoes its effective configuration into the output
artifact, and writes files atomically. features and decompose share one
block loop, which names a trial that overflows and lets each block's
trials go once they are filtered. Exit codes: 0 success,
1 usage error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys

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
from .evaluation import _cross_validate_grid, cross_validate
from .hht import FEATURE_NAMES, _RowFailure, emd, trial_feature_vector
from .solvers import KERNELS, SolverKind

_PROG = "hhtelm"

# features and decompose sift this many trials together and hold the
# modes of a block at once (about 80 KB a trial). On a shared 2-vCPU
# machine with one BLAS thread, `features` on the 400 trials of
# SynthConfig(n_per_class=200, seed=42) took 1.26, 1.18 and 1.13 s in
# blocks of 20, 32 and 64 (medians of 3), and 1.14 s in one block. Under
# tracemalloc one block peaked at 55.0 MiB of allocations, blocks of 64 at
# 14.2 MiB, and at 13.3 MiB once emd sifted in place; reading their CSV
# alone takes 6.9 MiB.
_BLOCK_TRIALS = 64

# sweep refuses a grid of more configurations than this unless --budget is
# given. The default grid took 0.093 s a configuration on the 400 trials
# of SynthConfig(n_per_class=200, seed=42) (157 s for 1681, one BLAS thread
# on a shared 2-vCPU machine), so this cap is about 16 minutes; the default
# depth-3 grid, 68,921 configurations and about 1.8 hours, needs --budget.
_MAX_GRID_CONFIGS = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _echo(args, text):
    if not args.quiet:
        print(text)


def _percent(value):
    """A metric for a log line: two decimals, or ``undefined`` for None."""
    return "undefined" if value is None else f"{value:.2f}"


def _seed_flag(sub):
    sub.add_argument("--seed", type=int, default=0, help="seed for all randomness (>= 0)")


def _common_flags(sub):
    sub.add_argument("--out", required=True, help="output path (directory for decompose)")
    sub.add_argument("--quiet", action="store_true", help="suppress log lines")


def _filter_flags(sub):
    sub.add_argument("--cutoff", type=float, default=10.0, help="low-pass cutoff in Hz")
    sub.add_argument("--taps", type=int, default=257, help="FIR tap count (odd, >= 33)")


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
    _seed_flag(synth)
    _common_flags(synth)
    synth.set_defaults(func=cmd_synth)

    decompose = commands.add_parser("decompose", help="filter and decompose trials")
    decompose.add_argument("--in", dest="input", required=True, help="trials CSV")
    decompose.add_argument(
        "--trial-id", action="append", default=None, help="restrict to this trial id (repeatable)"
    )
    _filter_flags(decompose)
    _common_flags(decompose)
    decompose.set_defaults(func=cmd_decompose)

    features = commands.add_parser("features", help="trials CSV -> feature CSV")
    features.add_argument("--in", dest="input", required=True, help="trials CSV")
    _filter_flags(features)
    _common_flags(features)
    features.set_defaults(func=cmd_features)

    evaluate = commands.add_parser("evaluate", help="cross-validate on a feature CSV")
    evaluate.add_argument("--features", required=True, help="feature CSV")
    evaluate.add_argument("--layers", default="40,30", help="comma-separated widths")
    _train_flags(evaluate)
    _seed_flag(evaluate)
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
    _seed_flag(sweep)
    _common_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

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
    _echo(args, f"synth: wrote {len(trials)} trials to {args.out}")
    return 0


def _filtered_blocks(trials, spec, work):
    """``(ids, result)`` per block of at most ``_BLOCK_TRIALS`` trials, the
    ids being the block's trial ids and the result ``work``
    (``trial_feature_vector`` or ``emd``) of the matrix of their filtered
    samples. The blocks are taken out of the list ``trials``, which ends
    empty, so a block's records, samples included, are let go of once they
    are filtered. Trials decompose independently, so the blocks only bound
    the memory of one batch. A row that overflows in ``work`` is refused
    with a NumericalFailure naming its trial."""
    while trials:
        block = trials[:_BLOCK_TRIALS]
        del trials[:_BLOCK_TRIALS]
        ids = [trial.trial_id for trial in block]
        signals = np.array([lowpass_filter(trial.samples, trial.fs, spec) for trial in block])
        del block
        try:
            result = work(signals)
        except _RowFailure as exc:
            raise NumericalFailure(f"trial {ids[exc.row]}: {exc.reason}") from None
        yield ids, result


def cmd_decompose(args):
    spec = FilterSpec(cutoff=args.cutoff, taps=args.taps)
    trials = load_trials_csv(args.input)
    if args.trial_id:
        by_id = {trial.trial_id: trial for trial in trials}
        wanted = list(dict.fromkeys(args.trial_id))
        missing = [tid for tid in wanted if tid not in by_id]
        if missing:
            raise NotFound(f"trial id(s) {missing} not present in {args.input}")
        trials = [by_id[tid] for tid in wanted]
        del by_id
    count = len(trials)
    note = config_note("decompose", spec)
    _echo(args, f"decompose: cutoff={spec.cutoff:g} Hz taps={spec.taps} -> {count} trial(s)")
    for ids, sets in _filtered_blocks(trials, spec, emd):
        # Made once a block is decomposed, so a run refused at its first block leaves nothing.
        os.makedirs(args.out, exist_ok=True)
        for trial_id, modes in zip(ids, sets):
            columns = [f"imf_{i + 1}" for i in range(len(modes.imfs))] + ["residual"]
            rows = ([_fmt(v) for v in row] for row in zip(*modes.imfs, modes.residual))
            write_csv(os.path.join(args.out, f"{trial_id}.csv"), columns, rows, note)
    _echo(args, f"decompose: wrote {count} file(s) under {args.out}")
    return 0


def cmd_features(args):
    spec = FilterSpec(cutoff=args.cutoff, taps=args.taps)
    trials = load_trials_csv(args.input)
    if not trials:
        raise NotFound(f"{args.input} contains no trials")
    labels = [trial.label for trial in trials]
    rows = [values for _, values in _filtered_blocks(trials, spec, trial_feature_vector)]
    note = config_note("features", spec)
    save_features_csv(np.vstack(rows), FEATURE_NAMES, labels, args.out, config_note=note)
    _echo(
        args,
        f"features: cutoff={spec.cutoff:g} Hz, "
        f"{len(labels)} trials x {len(FEATURE_NAMES)} features -> {args.out}",
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
    _echo(
        args,
        "evaluate: mean accuracy "
        f"{_percent(mean.accuracy)} / sensitivity {_percent(mean.sensitivity)} / "
        f"selectivity {_percent(mean.selectivity)} over {args.k} folds -> {args.out}",
    )
    return 0


def cmd_sweep(args):
    if args.min < 1 or args.max < args.min or args.step < 1:
        raise InvalidConfig("sweep needs 1 <= min <= max and step >= 1")
    if args.budget is not None and args.budget < 1:
        raise InvalidConfig("--budget must be >= 1")
    widths = range(args.min, args.max + 1, args.step)
    count = len(widths) ** args.depth
    if args.budget is None and count > _MAX_GRID_CONFIGS:
        raise InvalidConfig(
            f"the grid holds {count} configs, more than {_MAX_GRID_CONFIGS}; "
            "--budget N evaluates N of them and lifts this cap"
        )
    kernel = SolverKind(variant=args.kernel, ridge=args.ridge)
    # The widest widths, so a width above the cap is refused before anything is read or drawn.
    train_config = TrainConfig((widths[-1],) * args.depth, kernel=kernel, seed=args.seed)
    features, _, labels = load_features_csv(args.features)
    grid = itertools.product(widths, repeat=args.depth)
    if args.budget is not None and args.budget < count:
        # Grid point i is the i-th of itertools.product, whose last width
        # varies fastest: the digits of i in base len(widths).
        picks = np.random.default_rng(args.seed).choice(count, size=args.budget, replace=False)
        digits = np.unravel_index(np.sort(picks), (len(widths),) * args.depth)
        grid = (tuple(widths[d] for d in point) for point in zip(*digits))
    reports = _cross_validate_grid(features, labels, train_config, grid, args.k, args.seed)
    results = [(config.layer_sizes, report.mean, report.std) for config, report in reports]
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
    _echo(
        args,
        f"sweep: {len(results)} config(s), best layers {'-'.join(str(s) for s in best_sizes)} "
        f"at mean accuracy {_percent(best_mean.accuracy)} -> {args.out}",
    )
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
    except MemoryError as exc:
        # An input too large for the machine (a features file of very many
        # columns, say) is refused like a bad flag value.
        print(f"{_PROG}: usage error: out of memory: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"{_PROG}: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (PipelineError, OSError) as exc:
        print(f"{_PROG}: data error: {exc}", file=sys.stderr)
        return 2
