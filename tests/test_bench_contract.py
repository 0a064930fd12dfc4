"""The benchmark's traced run (``perfbench/``) names functions of the
package and reads their arguments; these tests pin that contract, so a
rename or a dropped attribute fails here and not only in a traced run."""
import importlib
import inspect
import os
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hhtelm import (
    FilterSpec,
    SolverKind,
    SynthConfig,
    TrainConfig,
    hht,
    lowpass_filter,
    save_trials_csv,
    synth_scp,
)
from hhtelm.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench_path():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def layers(perfbench_path):
    return importlib.import_module("layers")


@pytest.fixture(scope="module")
def bench_run(perfbench_path):
    # run.py sets the BLAS thread variables when it is imported.
    with mock.patch.dict(os.environ):
        return importlib.import_module("run")


def public_function(span):
    """The function a span name ``<layer>.<function>`` refers to, found the
    way the tracer finds it: a public function defined in that module."""
    layer, name = span.split(".", 1)
    module = importlib.import_module(f"hhtelm.{layer}")
    obj = getattr(module, name, None)
    assert inspect.isfunction(obj), f"{span} is not a function of hhtelm.{layer}"
    assert obj.__module__ == module.__name__, f"{span} is defined in {obj.__module__}"
    assert not name.startswith("_"), f"{span} is private, so it is never traced"
    return obj


def test_expected_spans_name_public_functions(layers):
    for span in layers.EXPECTED_SPANS:
        public_function(span)


def test_annotators_accept_the_arguments_of_their_functions(layers, tmp_path):
    trials = str(tmp_path / "trials.csv")
    save_trials_csv(synth_scp(SynthConfig(n_per_class=2, seed=1)), trials)
    rng = np.random.default_rng(0)
    h = rng.standard_normal((6, 3))
    config = TrainConfig(layer_sizes=(4, 3), kernel=SolverKind("lu", ridge=1e-3), seed=2)
    calls = {
        "dataio.load_trials_csv": (trials,),
        "dataio.load_features_csv": (trials,),
        "dataio.atomic_write_text": (trials, "text\n"),
        "solvers.solve_output_weights": (h, h[:, :2], SolverKind("svd")),
        "evaluation.cross_validate": (h, ["negativity", "positivity"] * 3, config, 3, 5),
    }
    assert set(layers.ANNOTATORS) == set(calls)
    for span, annotate in layers.ANNOTATORS.items():
        inspect.signature(public_function(span)).bind(*calls[span])
        annotate(*calls[span])


def test_bench_command_lines_parse(bench_run, tmp_path):
    """Every command line the bench runs is one the CLI accepts, so removing
    a flag the bench passes fails here and not only in a bench run."""
    parser = build_parser()
    kinds = set()
    for workload in bench_run.WORKLOADS.values():
        plan = bench_run.workload_plan(workload, str(tmp_path), 42)
        for command in (plan.synth, *plan.features, *plan.cv):
            parser.parse_args([*command.argv, "--quiet"])
            kinds.add(command.kind)
    assert kinds >= {"synth", "features", "evaluate", "sweep"}


def test_feature_recipe_matches_the_bench(layers, bench_run):
    """The bench checks feature files for its width and groups their
    columns in blocks of its statistic count, so a change to either fails
    here and not only in a bench run."""
    assert len(hht.FEATURE_NAMES) == bench_run.FEATURE_WIDTH
    assert len(hht.STAT_NAMES) == layers.STAT_BLOCK


def test_emd_calls_envelope_and_extrema_through_their_module_names():
    """The bench's ``hht.envelope_calls`` counts ``hht.spline_envelope``
    spans, one per sifting step of a block, and its extrema spans count
    ``hht.find_extrema``. A fixed 4-trial block makes 32 steps and 103
    extrema scans; an inlined call would not reach these spies, so the
    counts would drop here and not only in a traced run."""
    trials = synth_scp(SynthConfig(n_per_class=2, seed=1))
    block = np.array([lowpass_filter(t.samples, t.fs, FilterSpec()) for t in trials])
    with (
        mock.patch.object(hht, "spline_envelope", wraps=hht.spline_envelope) as envelope,
        mock.patch.object(hht, "find_extrema", wraps=hht.find_extrema) as extrema,
    ):
        modes = hht.emd(block)
    assert [len(m.imfs) for m in modes] == [4, 4, 4, 5]
    assert envelope.call_count == 32
    assert extrema.call_count == 103


def test_traced_pipeline_fires_every_expected_span(layers, tmp_path):
    """A traced synth, features and evaluate per kernel record every span the
    bench's traced run expects, so a path that routes around a traced
    function (a batched helper called instead of ``hht.spline_envelope``,
    say) fails here and not only in a ``--trace 1`` bench run."""
    import hhtelm.cli as cli

    tracing = importlib.import_module("tracing")
    trials = str(tmp_path / "trials.csv")
    features = str(tmp_path / "features.csv")
    commands = [
        ["synth", "--n-per-class", "4", "--seed", "3", "--out", trials],
        ["features", "--in", trials, "--taps", "65", "--out", features],
    ]
    commands += [
        ["evaluate", "--features", features, "--layers", "6,4", "--kernel", kernel, "--k", "2",
         "--out", str(tmp_path / f"report_{kernel}.json")]
        for kernel in layers.KERNELS
    ]
    commands.append(
        ["sweep", "--features", features, "--min", "4", "--max", "6", "--step", "2", "--k", "2",
         "--out", str(tmp_path / "sweep.csv")]
    )
    with tracing.Tracer("hhtelm", layers.ANNOTATORS) as tracer:
        for argv in commands:
            assert cli.main([*argv, "--quiet"]) == 0
    assert tracer.spans
    assert layers.missing_spans(tracer.spans, ["synth", "features", "evaluate", "sweep"]) == []


def test_traced_wide_evaluate_counts_one_span_per_fit(layers, tmp_path):
    """The bench's ``elm.ae_calls`` and ``solvers.solve_calls`` count the
    autoencoder fits and the solves: a 5-fold depth-2 CV on the bench's
    ``wide`` input traces 10 of each autoencoder span and 15 solves, with
    the folds sharing one draw of the random layers."""
    import hhtelm.cli as cli

    tracing = importlib.import_module("tracing")
    trials = str(tmp_path / "trials.csv")
    features = str(tmp_path / "features.csv")
    assert cli.main(["synth", "--n-per-class", "50", "--seed", "42", "--out", trials, "--quiet"]) == 0
    assert cli.main(["features", "--in", trials, "--out", features, "--quiet"]) == 0
    argv = ["evaluate", "--features", features, "--layers", "200,200", "--k", "5",
            "--out", str(tmp_path / "report.json"), "--quiet"]
    with tracing.Tracer("hhtelm", layers.ANNOTATORS) as tracer:
        assert cli.main(argv) == 0
    fired = Counter(span[tracing.NAME] for span in tracer.spans)
    assert fired["elm.elm_ae_train"] == 10
    assert fired["elm.elm_train"] == 10
    assert fired["solvers.solve_output_weights"] == 15
    metrics = layers.layer_metrics(tracer.spans, [], [0])
    assert metrics["elm.ae_calls"] == 10
    assert metrics["solvers.solve_calls"] == 15


def test_traced_sweep_fits_each_shared_stage_once_per_fold(layers, tmp_path):
    """A depth-2 sweep over widths W in k folds fits each first stage once per
    fold and each configuration's second stage once per fold:
    k * (|W| + |W|**2) autoencoder spans, against k * 2 * |W|**2 when every
    configuration refitted its first stage. Each fit still predicts through
    ``elm.deep_elm_predict`` and each solve, the readouts' included, still
    reduces through ``solvers.hessenberg_reduce``: k * |W|**2 and
    k * (|W| + 2 * |W|**2) spans. The sweep runs outside
    ``evaluation.cross_validate``, so the bench's fold metrics count only
    ``evaluate`` commands."""
    import hhtelm.cli as cli

    tracing = importlib.import_module("tracing")
    trials = str(tmp_path / "trials.csv")
    features = str(tmp_path / "features.csv")
    assert cli.main(["synth", "--n-per-class", "4", "--seed", "3", "--out", trials, "--quiet"]) == 0
    assert cli.main(["features", "--in", trials, "--taps", "65", "--out", features, "--quiet"]) == 0
    widths, k = 3, 2  # 4, 6 and 8
    argv = ["sweep", "--features", features, "--min", "4", "--max", "8", "--step", "2",
            "--depth", "2", "--k", str(k), "--out", str(tmp_path / "sweep.csv"), "--quiet"]
    with tracing.Tracer("hhtelm", layers.ANNOTATORS) as tracer:
        assert cli.main(argv) == 0
    fired = Counter(span[tracing.NAME] for span in tracer.spans)
    stages = k * (widths + widths**2)
    assert fired["elm.elm_ae_train"] == fired["elm.elm_train"] == stages
    assert fired["elm.deep_elm_train"] == fired["evaluation.metrics"] == k * widths**2
    assert fired["elm.deep_elm_predict"] == k * widths**2
    assert fired["solvers.hessenberg_reduce"] == k * (widths + 2 * widths**2)
    assert fired["evaluation.balance_train_set"] == k
    assert fired["evaluation.cross_validate"] == 0
    metrics = layers.layer_metrics(tracer.spans, [], [0])
    assert metrics["elm.ae_calls"] == stages
    assert metrics["solvers.solve_calls"] == stages + k * widths**2
    assert metrics["evaluation.folds"] == 0
