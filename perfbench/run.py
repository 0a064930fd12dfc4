"""Benchmark of the hhtelm pipeline, driven through its CLI in one process.

    python3 perfbench/run.py --workload {pinned,wide,sweep} [--seed 42]
                             [--seconds 15] [--trace 0|1]

The program is imported from ``src/`` beside this directory and every
command goes through ``hhtelm.cli.main``. A run has three phases:

* set-up, done ``SETUP_REPEATS`` times: the workload's input files (made by
  ``synth`` and ``features`` from ``--seed``) and one untimed warm-up pass
  of the workload's commands;
* timed passes of the workload's commands until ``--seconds`` have
  elapsed;
* with ``--trace 0``, one more untimed pass, with one features command at
  most, under ``tracemalloc``, which gives the memory metric;
* output checks, and a recomputation of the fixed reference input in
  ``reference.json``.

Times are scaled to a fixed machine speed, because the speed of a shared
core drifts between runs: the calibration in ``calibration.py`` is timed
between every two commands, and every time is multiplied by its reference
duration over the median of the run's calibrations. A metric is the median
over the run's repeats. ``setup_s`` is the import time plus the median of
the set-up repeats.

With ``--trace 1`` the first set-up's input commands and ``TRACED_PASSES``
extra passes run with every public function of the pipeline's modules
wrapped in a span (``tracing.py``), and the last line carries the
per-layer metrics of ``layers.py`` instead of the end-to-end ones. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

An operation is one CLI command; it fails on a non-zero exit or a failed
output check. Working files live in ``.perfbench_work/`` at the root of the
checkout and are removed on exit.

The workloads' reasons and the metrics' names and units are read from
``BENCHMARK.json`` at the root of the checkout.
"""
import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread, fixed before numpy loads: on 2 cores it measured
# steadier than the default of two, and svd and lu were faster with it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from itertools import islice  # noqa: E402

from calibration import REFERENCE_S, calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WHY = {workload["name"]: workload["why"] for workload in SPEC["workloads"]}
END_TO_END_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

KERNELS = ("svd", "hessenberg", "lu")
FOLDS = "5"
FEATURE_WIDTH = 132
SETUP_REPEATS = 2
# Set-up runs features on chunks of this many trials and joins the outputs;
# a pinned pass reruns some of those commands (``Plan.one_pass``).
CHUNK_TRIALS = 20
TRACED_PASSES = 3
# Largest share of trials on which two kernels may predict different labels.
KERNEL_DISAGREEMENT = 0.01


@dataclass(frozen=True)
class Workload:
    n_per_class: int  # trials per class behind the features file the CV commands read
    layers: str  # widths of the per-kernel evaluate commands
    pass_chunks: int = 0  # input chunks each pass runs features on
    sweep: tuple = ()  # (min, max, step) of a depth-2 sweep in each pass
    min_accuracy: float | None = None


WORKLOADS = {
    "pinned": Workload(
        n_per_class=200,
        layers="40,30",
        pass_chunks=4,
        min_accuracy=95.0,
    ),
    "wide": Workload(
        n_per_class=50,
        layers="200,200",
    ),
    "sweep": Workload(
        n_per_class=50,
        layers="70,70",
        sweep=(20, 70, 10),
    ),
}


@dataclass(frozen=True)
class Command:
    kind: str
    label: str
    argv: tuple
    output: str
    count: int = 1  # trials a features command reads; configs a CV command runs


@dataclass
class Outcome:
    command: Command
    seconds: float
    code: object
    failures: list = field(default_factory=list)
    digest: str = ""  # of the output file
    accuracy: float | None = None
    predictions: object = None
    matrix: object = None
    calibration: float = 0.0  # mean of the calibrations timed just before and after
    peak_bytes: int = 0  # peak of the allocations the command made, when measured


def _synth(label, n_per_class, seed, out):
    return Command("synth", label, ("synth", "--n-per-class", str(n_per_class), "--seed", str(seed), "--out", out), out)


def _features(label, trials, out, n_trials):
    return Command("features", label, ("features", "--in", trials, "--out", out), out, n_trials)


@dataclass(frozen=True)
class Plan:
    synth: Command
    features: list  # one features command per input chunk
    joined: str  # the features file the CV commands read
    pass_chunks: int
    cv: list  # the evaluate and sweep commands of every pass

    def one_pass(self, index):
        """The commands of pass ``index``.

        A pass runs set-up's features commands on the next ``pass_chunks``
        chunks in turn, so its outputs are checked against set-up's bytes.
        On fixed chunks one seed's pass was slower than another's in every
        run: within one run, 20-trial chunks took 0.43 to 0.64 s of CPU time.
        """
        start = index * self.pass_chunks
        chunks = [self.features[(start + i) % len(self.features)] for i in range(self.pass_chunks)]
        return chunks + self.cv


def workload_plan(workload, work, seed):
    """The commands of a workload; paths under ``work``."""
    trials = os.path.join(work, "trials.csv")
    joined = os.path.join(work, "features.csv")
    total = 2 * workload.n_per_class
    chunks = [
        (os.path.join(work, f"trials_{i}.csv"), os.path.join(work, f"features_{i}.csv"), min(CHUNK_TRIALS, total - at))
        for i, at in enumerate(range(0, total, CHUNK_TRIALS))
    ]
    cv = []
    if workload.sweep:
        low, high, step = workload.sweep
        configs = len(range(low, high + 1, step)) ** 2
        out = os.path.join(work, "sweep.csv")
        argv = ("sweep", "--features", joined, "--min", str(low), "--max", str(high), "--step", str(step))
        cv.append(Command("sweep", "sweep", argv + ("--depth", "2", "--k", FOLDS, "--out", out), out, configs))
    for kernel in KERNELS:
        out = os.path.join(work, f"report_{kernel}.json")
        argv = ("evaluate", "--features", joined, "--layers", workload.layers, "--kernel", kernel)
        cv.append(Command("evaluate", f"evaluate.{kernel}", argv + ("--k", FOLDS, "--out", out), out))
    return Plan(
        synth=_synth("synth", workload.n_per_class, seed, trials),
        features=[_features(f"features.{i}", chunk, out, n) for i, (chunk, out, n) in enumerate(chunks)],
        joined=joined,
        pass_chunks=workload.pass_chunks,
        cv=cv,
    )


def _csv_head(handle):
    """The leading comment lines and the header line of an open CSV."""
    head = [handle.readline()]
    while head[-1].startswith("#"):
        head.append(handle.readline())
    return head


def make_inputs(runner, plan):
    """Synthesize the trials, run features chunk by chunk and join the outputs.

    Trials are independent in the pipeline, so the joined file has the same
    bytes a single features command over all trials writes. The files are
    split and joined line by line, so the harness never holds one whole.
    """
    made = runner.run([plan.synth])
    if made[0].code != 0:
        return made
    with open(plan.synth.output) as trials:
        head = _csv_head(trials)
        for command in plan.features:
            with open(command.argv[2], "w") as handle:
                handle.writelines(head)
                handle.writelines(islice(trials, command.count))
    made += runner.run(plan.features)
    if all(outcome.code == 0 for outcome in made):
        with open(plan.joined, "w") as joined:
            for i, command in enumerate(plan.features):
                with open(command.output) as part:
                    head = _csv_head(part)
                    if i == 0:
                        joined.writelines(head)
                    joined.writelines(part)
    return made


class Runner:
    """Runs CLI commands in-process and keeps every outcome."""

    def __init__(self, cli):
        self.cli = cli  # the module, so a traced run reaches the wrapped main
        self.outcomes = []

    def run(self, commands, memory=False):
        """Run commands in order, each between two calibrations.

        With ``memory`` each command runs under ``tracemalloc``, which slows
        it, and its outcome keeps the peak of the allocations it made (numpy
        arrays included); the calibrations are left out of that window.
        """
        done = []
        before = calibrate()
        for command in commands:
            if memory:
                tracemalloc.start()
            began = time.perf_counter()
            try:
                code = self.cli.main(list(command.argv) + ["--quiet"])
            except Exception as exc:  # a crash in the program is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - began
            peak = 0
            if memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            after = calibrate()
            done.append(Outcome(command, seconds, code, calibration=(before + after) / 2.0, peak_bytes=peak))
            before = after
        self.outcomes.extend(done)
        return done

    @property
    def failed(self):
        return sum(1 for outcome in self.outcomes if outcome.failures)


def check_outputs(outcomes, workload, hhtelm, first):
    """Load and check each command's output; failures go onto its outcome.

    ``first`` maps a command label to its first outcome in the run; every
    later output must match it byte for byte.
    """
    import numpy as np

    for outcome in outcomes:
        command = outcome.command
        if outcome.code != 0:
            outcome.failures.append(f"exit {outcome.code}")
            continue
        with open(command.output, "rb") as handle:
            data = handle.read()
        outcome.digest = hashlib.sha256(data).hexdigest()
        earlier = first.setdefault(command.label, outcome)
        if earlier.digest != outcome.digest:
            outcome.failures.append("output differs from the run's first one")
        if command.kind == "features":
            matrix, _, _ = hhtelm.dataio.load_features_csv(command.output)
            outcome.matrix = matrix
            if matrix.shape != (command.count, FEATURE_WIDTH) or not np.all(np.isfinite(matrix)):
                outcome.failures.append(f"features are {matrix.shape}, expected {command.count}x{FEATURE_WIDTH} finite")
        elif command.kind == "evaluate":
            report = hhtelm.dataio.load_report(command.output)
            outcome.accuracy = report.mean.accuracy
            outcome.predictions = report.predictions
        elif command.kind == "sweep":
            lines = [line for line in data.decode().splitlines() if not line.startswith("#")]
            rows = [line.split(",") for line in lines[1:]]
            if len(rows) != command.count:
                outcome.failures.append(f"sweep wrote {len(rows)} rows, expected {command.count}")
            outcome.accuracy = min((float(row[1]) for row in rows if row[1]), default=None)
        if command.kind in ("evaluate", "sweep") and outcome.accuracy is None:
            outcome.failures.append("accuracy undefined")
        elif command.kind == "evaluate" and outcome.accuracy < (workload.min_accuracy or 0.0):
            outcome.failures.append(f"accuracy {outcome.accuracy} below {workload.min_accuracy}")
    reports = [o for o in outcomes if o.command.kind == "evaluate" and o.predictions is not None]
    for i, later in enumerate(reports):
        for earlier in reports[:i]:
            share = float(np.mean(earlier.predictions != later.predictions))
            if share > KERNEL_DISAGREEMENT:
                later.failures.append(f"predictions differ from {earlier.command.label} on {share:.1%} of trials")


def reference_check(runner, work, hhtelm):
    """Recompute the features of the fixed reference input and compare them."""
    import numpy as np

    with open(REFERENCE) as handle:
        reference = json.load(handle)
    trials = os.path.join(work, "reference_trials.csv")
    features = os.path.join(work, "reference_features.csv")
    made, computed = runner.run(
        [
            _synth("reference.synth", reference["n_per_class"], reference["seed"], trials),
            _features("reference.features", trials, features, 2 * reference["n_per_class"]),
        ]
    )
    for outcome in (made, computed):
        if outcome.code != 0:
            outcome.failures.append(f"exit {outcome.code}")
    if computed.failures:
        return
    values, _, _ = hhtelm.dataio.load_features_csv(features)
    expected = np.array(reference["features"])
    # Tolerance per column, relative to that column's largest magnitude.
    scale = np.max(np.abs(expected), axis=0)
    if values.shape != expected.shape or np.any(np.abs(values - expected) > reference["rtol"] * scale):
        computed.failures.append(f"reference features deviate beyond rtol {reference['rtol']}")


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def end_to_end(setup_s, warm_setup, timed, measured, speed):
    """End-to-end metrics: medians over the run's repeats, times scaled by ``speed``.

    ``warm_setup`` holds the last set-up's input commands, ``measured`` the
    pass run under ``tracemalloc``.
    """
    cv_kinds = ("evaluate", "sweep")
    # Every features command of the last set-up and of the passes runs warm.
    # Single 20-trial commands varied by 15% within a run, so the trials are
    # pooled over all of them.
    warm_features = [o for o in warm_setup + [o for done in timed for o in done] if o.command.kind == "features"]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(o.seconds for o in done) for done in timed) * speed,
        "peak_alloc_mb": max(o.peak_bytes for o in measured) / 2**20,
        "accuracy_pct": min(o.accuracy for o in timed[-1] if o.accuracy is not None),
        "trials_per_s": sum(o.command.count for o in warm_features) / sum(o.seconds for o in warm_features) / speed,
        "configs_per_s": statistics.median(
            sum(o.command.count for o in done if o.command.kind in cv_kinds)
            / sum(o.seconds for o in done if o.command.kind in cv_kinds)
            for done in timed
        )
        / speed,
    }
    for kernel in KERNELS:
        label = f"evaluate.{kernel}"
        metrics[f"evaluate_s.{kernel}"] = (
            statistics.median(o.seconds for done in timed for o in done if o.command.label == label) * speed
        )
    return metrics


def bench(args, work):
    import hhtelm
    import hhtelm.cli
    from layers import ANNOTATORS, layer_metrics, missing_spans
    from tracing import LAYERS, Tracer

    if not os.path.abspath(hhtelm.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported hhtelm from {hhtelm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(hhtelm.cli)
    tracer = Tracer("hhtelm", ANNOTATORS) if args.trace else None
    plan = workload_plan(workload, work, args.seed)
    first = {}
    import_s = time.perf_counter() - PROCESS_START

    setups = []
    made = []
    batches = []  # index of the first span of each traced batch
    for repeat in range(SETUP_REPEATS):
        began = time.perf_counter()
        batches.append(len(tracer.spans) if tracer else 0)
        with tracer if tracer and repeat == 0 else contextlib.nullcontext():
            made.append(make_inputs(runner, plan))
        check_outputs(made[-1], workload, hhtelm, first)
        if runner.failed:
            return finish(runner, {}, {}, "set-up failed")
        check_outputs(runner.run(plan.one_pass(repeat)), workload, hhtelm, first)
        setups.append(time.perf_counter() - began)

    timed = []
    started = time.perf_counter()
    while not timed or time.perf_counter() - started < args.seconds:
        timed.append(runner.run(plan.one_pass(SETUP_REPEATS + len(timed))))
        check_outputs(timed[-1], workload, hhtelm, first)
    # One factor for the whole run: scaling each command by the calibrations
    # just around it carried their own jitter, and the spread of wall_s
    # between runs was twice as wide.
    calibrations = [o.calibration for o in runner.outcomes]
    speed = REFERENCE_S / statistics.median(calibrations)
    setup_s = (import_s + statistics.median(setups)) * speed

    measured, traced = [], []
    if tracer:
        # The traced passes repeat the first timed passes' commands.
        for j in range(TRACED_PASSES):
            batches.append(len(tracer.spans))
            with tracer:
                traced.append(runner.run(plan.one_pass(SETUP_REPEATS + j)))
            check_outputs(traced[-1], workload, hhtelm, first)
    else:
        # Every features command reads 20 trials, so one shows their peak;
        # under tracemalloc the other three of a pinned pass took 6 s more.
        measured = runner.run(plan.features[: min(plan.pass_chunks, 1)] + plan.cv, memory=True)
        check_outputs(measured, workload, hhtelm, first)
    reference_check(runner, work, hhtelm)

    print(f"workload {args.workload} (seed {args.seed}): {WHY[args.workload]}")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print(
        f"calibration median {statistics.median(calibrations) * 1e3:.2f} ms over {len(calibrations)} commands "
        f"(reference {REFERENCE_S * 1e3:.2f} ms); set-up {statistics.median(setups):.3f} s unscaled"
    )
    if not tracer:
        # A failed command leaves holes that the metrics would paper over.
        metrics = {} if runner.failed else end_to_end(setup_s, made[-1], timed, measured, speed)
        return finish(runner, metrics, END_TO_END_UNITS, f"{len(timed)} timed passes")

    recorded = made[0] + [o for done in traced for o in done]
    problems = [
        f"expected span {name} never fired"
        for name in missing_spans(tracer.spans, sorted({o.command.kind for o in recorded}))
    ]
    try:
        metrics = layer_metrics(tracer.spans, [o.matrix for o in recorded if o.matrix is not None], batches)
    except (ValueError, TypeError, IndexError) as exc:
        problems.append(f"per-layer metrics: {exc}")
        metrics = {}
    recorded[0].failures.extend(problems)
    traced_wall = sum(o.seconds for o in recorded)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace_overhead_s"] = statistics.median(
        sum(o.seconds for o in with_spans) - sum(o.seconds for o in without)
        for with_spans, without in zip(traced, timed)
    ) * speed
    if "cli.self_s" in metrics:
        covered = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        shares = ", ".join(f"{layer} {metrics[f'{layer}.self_s'] / traced_wall:.1%}" for layer in LAYERS)
        print(f"self time by layer, of traced wall {traced_wall:.3f} s: {shares}; sum {covered / traced_wall:.1%}")
    return finish(runner, metrics, PER_LAYER_UNITS, f"{len(tracer.spans)} spans")


def finish(runner, metrics, units, note):
    """Print the failures and metrics; ``metrics`` holds every name in ``units`` or none."""
    if metrics:
        metrics = {name: metrics[name] for name in units}
    attempted = len(runner.outcomes)
    for outcome in runner.outcomes:
        for failure in outcome.failures:
            print(f"FAILED {outcome.command.label}: {failure}")
    print(f"{note}; error_rate {runner.failed / max(attempted, 1):.4f} ({runner.failed} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>16.6f} {units[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="hhtelm pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=42, help="seed of the synthetic trials")
    parser.add_argument("--seconds", type=float, default=15.0, help="timed passes run at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hhtelm", "cli.py")):
        print(f"perfbench: no hhtelm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))


if __name__ == "__main__":
    sys.exit(main())
