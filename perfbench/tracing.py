"""Spans and counters recorded around skelgest's public functions.

The benchmark traces the program from the outside: `install` replaces
module attributes with timing wrappers, at the module where each function is
looked up when it is called (``cli.load_dataset``, ``pipeline.fit``,
``train.batch_loss_and_grad`` ...), so no line of ``src/`` changes.  Spans
stay in memory and are written out once, when the traced phase ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from pathlib import Path

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "ingest.load_dataset.s": ("s", "lower"),
    "ingest.sequences": ("count", "higher"),
    "ingest.synth_write.s": ("s", "lower"),
    "preprocess.features.s": ("s", "lower"),
    "preprocess.features.calls": ("count", "lower"),
    "preprocess.windows": ("count", "lower"),
    "preprocess.features_per_sequence": ("ratio", "lower"),
    "preprocess.smooth_series.s": ("s", "lower"),
    "preprocess.normalize_window.s": ("s", "lower"),
    "neuralnet.fit.s": ("s", "lower"),
    "neuralnet.fit.calls": ("count", "lower"),
    "neuralnet.train_windows_per_s": ("1/s", "higher"),
    "neuralnet.loss_and_grad.s": ("s", "lower"),
    "neuralnet.loss_and_grad.calls": ("count", "lower"),
    "neuralnet.optimizer.s": ("s", "lower"),
    "lstm.loss_and_grad.ms": ("ms", "lower"),
    "lstm.forward.ms": ("ms", "lower"),
    "tcn.loss_and_grad.ms": ("ms", "lower"),
    "tcn.forward.ms": ("ms", "lower"),
    "neuralnet.forward.s": ("s", "lower"),
    "neuralnet.forward.calls": ("count", "lower"),
    "neuralnet.forward.windows_per_call": ("ratio", "higher"),
    "pipeline.stack_windows.calls": ("count", "lower"),
    "pipeline.stack_windows.s": ("s", "lower"),
    "pipeline.train_protocol.s": ("s", "lower"),
    "pipeline.evaluate.s": ("s", "lower"),
    "pipeline.sequences_scored": ("count", "higher"),
    "neuralnet.load_checkpoint.s": ("s", "lower"),
    "neuralnet.save_checkpoint.s": ("s", "lower"),
    "cli.write_report_files.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.top_level_share": ("ratio", "higher"),
}


class Tracer:
    """Spans (id, parent, name, start_ns, end_ns) and named counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.sequences: set[tuple[int, str]] = set()
        self.epoch_losses: list[list[float]] = []
        self.step_losses: list[list[float]] = []
        self._steps: list[float] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            tracer.counts[name + ".calls"] += 1
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def seconds(self, name: str) -> float:
        return sum(end - start for _, _, n, start, end in self.spans if n == name) / 1e9

    def top_level_seconds(self) -> float:
        return sum(end - start for _, parent, _, start, end in self.spans
                   if parent is None) / 1e9

    def fit_losses(self) -> list[list[float]]:
        """Per fit, its epoch losses, or its batch losses if it ran one epoch."""
        return [epochs if len(epochs) >= 2 else steps
                for epochs, steps in zip(self.epoch_losses, self.step_losses)]

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
            fh.write(json.dumps({"counts": dict(sorted(self.counts.items()))}) + "\n")


def _after_load(tracer, args, kwargs, ds):
    tracer.counts["ingest.sequences"] += len(ds.sequences)


def _after_features(tracer, args, kwargs, windows):
    seq = args[0]
    tracer.sequences.add((seq.patient_id, seq.label.id))
    tracer.counts["preprocess.windows"] += len(windows)


def _after_fit(tracer, args, kwargs, result):
    x, config = args[1], args[3]
    tracer.counts["neuralnet.train_window_epochs"] += len(x) * config.epochs
    tracer.epoch_losses.append(list(result.epoch_losses))
    tracer.step_losses.append(tracer._steps)
    tracer._steps = []


def _after_loss_and_grad(tracer, args, kwargs, result):
    tracer._steps.append(float(result[0]))


def _after_forward(tracer, args, kwargs, probs):
    tracer.counts["neuralnet.forward.windows"] += len(args[1])


def _after_evaluate(tracer, args, kwargs, result):
    tracer.counts["pipeline.sequences_scored"] += len(args[1])


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports."""
    from skelgest import cli, pipeline, preprocess
    from skelgest.neuralnet import train

    w = tracer.wrap
    w(cli, "generate_synthetic", "ingest.synth_write")
    w(cli, "write_dataset", "ingest.synth_write")
    w(cli, "load_dataset", "ingest.load_dataset", _after_load)
    w(cli, "cross_validate", "pipeline.cross_validate")
    w(cli, "load_model_set", "pipeline.load_model_set")
    w(cli, "save_model_set", "pipeline.save_model_set")
    w(cli, "write_report_files", "cli.write_report_files")
    for module in (cli, pipeline):
        w(module, "train_protocol", "pipeline.train_protocol")
        w(module, "evaluate_multiclass", "pipeline.evaluate", _after_evaluate)
        w(module, "evaluate_binary", "pipeline.evaluate", _after_evaluate)
    w(pipeline, "preprocess_sequence", "preprocess.features", _after_features)
    w(pipeline, "stack_windows", "pipeline.stack_windows")
    w(pipeline, "fit", "neuralnet.fit", _after_fit)
    w(pipeline, "forward", "neuralnet.forward", _after_forward)
    w(pipeline, "load_checkpoint", "neuralnet.load_checkpoint")
    w(pipeline, "save_checkpoint", "neuralnet.save_checkpoint")
    w(preprocess, "smooth_series", "preprocess.smooth_series")
    w(preprocess, "normalize_window", "preprocess.normalize_window")
    w(train, "batch_loss_and_grad", "neuralnet.loss_and_grad", _after_loss_and_grad)
    w(train, "clip_gradient", "neuralnet.optimizer")
    w(train, "adam_update", "neuralnet.optimizer")


def phase_metrics(tracer: Tracer) -> dict[str, float]:
    """Layer totals of one traced timed phase (set-up spans excluded)."""
    c = tracer.counts
    fit_s = tracer.seconds("neuralnet.fit")
    distinct = len(tracer.sequences)
    return {
        "ingest.load_dataset.s": tracer.seconds("ingest.load_dataset"),
        "ingest.sequences": c["ingest.sequences"],
        "preprocess.features.s": tracer.seconds("preprocess.features"),
        "preprocess.features.calls": c["preprocess.features.calls"],
        "preprocess.windows": c["preprocess.windows"],
        "preprocess.features_per_sequence": (
            c["preprocess.features.calls"] / distinct if distinct else 0.0),
        "preprocess.smooth_series.s": tracer.seconds("preprocess.smooth_series"),
        "preprocess.normalize_window.s": tracer.seconds("preprocess.normalize_window"),
        "neuralnet.fit.s": fit_s,
        "neuralnet.fit.calls": c["neuralnet.fit.calls"],
        "neuralnet.train_windows_per_s": (
            c["neuralnet.train_window_epochs"] / fit_s if fit_s else 0.0),
        "neuralnet.loss_and_grad.s": tracer.seconds("neuralnet.loss_and_grad"),
        "neuralnet.loss_and_grad.calls": c["neuralnet.loss_and_grad.calls"],
        "neuralnet.optimizer.s": tracer.seconds("neuralnet.optimizer"),
        "neuralnet.forward.s": tracer.seconds("neuralnet.forward"),
        "neuralnet.forward.calls": c["neuralnet.forward.calls"],
        "neuralnet.forward.windows_per_call": (
            c["neuralnet.forward.windows"] / c["neuralnet.forward.calls"]
            if c["neuralnet.forward.calls"] else 0.0),
        "pipeline.stack_windows.calls": c["pipeline.stack_windows.calls"],
        "pipeline.stack_windows.s": tracer.seconds("pipeline.stack_windows"),
        "pipeline.train_protocol.s": tracer.seconds("pipeline.train_protocol"),
        "pipeline.evaluate.s": tracer.seconds("pipeline.evaluate"),
        "pipeline.sequences_scored": c["pipeline.sequences_scored"],
        "neuralnet.load_checkpoint.s": tracer.seconds("neuralnet.load_checkpoint"),
        "cli.write_report_files.s": tracer.seconds("cli.write_report_files"),
    }


COUNT_METRICS = tuple(name for name, (unit, _) in PER_LAYER.items() if unit == "count")


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Median of each time over traced rounds; counts, which the caller checks
    to be equal in every round, come from the first."""
    return {name: rounds[0][name] if name in COUNT_METRICS
            else statistics.median(r[name] for r in rounds)
            for name in rounds[0]}
