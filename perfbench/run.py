"""Benchmark of skelgest's cost and accuracy, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run synthesizes its cohort from --seed (set-up), then repeats the timed
phase -- one ``skelgest evaluate`` from frame files on disk to the written
report, each time in a fresh process -- until S seconds have passed, checks
every written report against counts derived from the cohort recipe, and
prints one JSON object as its last line.  With --trace 0 that object holds
the end-to-end metrics (medians over the rounds); with --trace 1 it holds the
per-layer metrics of a traced run.  Full results, with the environment, go
to perfbench/_runs/results/.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "_runs"
ROUND_TIMEOUT_S = 170
# score_model_set trains its model set on this fixed cohort seed and scores a
# cohort drawn from --seed: the model set plays the part of a deployed one, so
# the run-to-run differences in its accuracy come from the scored patients.
MODEL_SET_SEED = 7919
# Set-up repeats until this share of --seconds has passed, and at least
# SETUP_MIN_REPEATS times; setup_s is the median.
SETUP_SHARE = 0.2
SETUP_MIN_REPEATS = 3

sys.path.insert(0, str(HERE))

import blas  # noqa: E402  (sets nothing; numpy is imported lazily)


@dataclass(frozen=True)
class Workload:
    """A cohort recipe and the skelgest configuration run on it."""

    name: str
    protocol: str  # CLI name: "multiclass" or "binary"
    net: str  # "lstm" or "tcn"
    patients: int  # cross-validated cohort, or the model set's training cohort
    width: int  # LSTM hidden size or TCN channels
    window: int
    stride: int
    epochs: int
    batch: int
    learning_rate: float
    boundaries: tuple[int, int] = (2, 4)
    scored_patients: int = 0  # > 0: score this many unseen patients, no CV

    @property
    def report_protocol(self) -> str:
        return "multiclass" if self.protocol == "multiclass" else "multiclass-binary"

    @property
    def n_classes(self) -> int:
        """Output width of the workload's largest model (static softmax or sigmoid)."""
        return 15 if self.protocol == "multiclass" else 1

    def model_flags(self) -> list[str]:
        width_flag = "--lstm-hidden" if self.net == "lstm" else "--tcn-channels"
        return [
            "--protocol", self.protocol, "--net", self.net, width_flag, str(self.width),
            "--frames", str(self.window), "--stride", str(self.stride),
            "--epochs", str(self.epochs), "--batch-size", str(self.batch),
            "--learning-rate", repr(self.learning_rate),
            # One-vs-rest models learn nothing at this training length unless
            # their positives are upsampled (README.md, binary configuration).
            "--rebalance", "true" if self.protocol == "binary" else "false",
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cv_multiclass_tcn", "multiclass", "tcn", patients=6, width=16,
                 window=32, stride=4, epochs=8, batch=16, learning_rate=0.01,
                 boundaries=(2, 4)),
        Workload("cv_binary_lstm", "binary", "lstm", patients=3, width=32,
                 window=32, stride=4, epochs=1, batch=64, learning_rate=0.01,
                 boundaries=(1, 2)),
        Workload("score_model_set", "multiclass", "lstm", patients=4, width=16,
                 window=16, stride=4, epochs=4, batch=32, learning_rate=0.02,
                 scored_patients=18),
    )
}


def _cli(args: list[str]) -> None:
    """Run a skelgest command in this process; a non-zero exit is a failure."""
    from skelgest import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    if code != 0:
        raise RuntimeError(f"skelgest {' '.join(args)} exited {code}")


def _fresh(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    return path


def setup(w: Workload, seed: int, work: Path) -> dict[str, Path]:
    """Write the cohort (and for a model-set workload, train and save it)."""
    cohort_seed = MODEL_SET_SEED if w.scored_patients else seed
    paths = {"cohort": _fresh(work / "cohort")}
    _cli(["synth", "--out", str(paths["cohort"]), "--seed", str(cohort_seed),
          "--patients", str(w.patients)])
    if w.scored_patients:
        paths["scored"] = _fresh(work / "scored")
        paths["trained"] = _fresh(work / "trained")
        _cli(["synth", "--out", str(paths["scored"]), "--seed", str(seed),
              "--patients", str(w.scored_patients)])
        _cli(["train", "--dataset", str(paths["cohort"]), "--out", str(paths["trained"]),
              "--seed", str(cohort_seed)] + w.model_flags())
    return paths


def timed_args(w: Workload, seed: int, paths: dict[str, Path], out: Path) -> list[str]:
    if w.scored_patients:
        return ["evaluate", "--models", str(paths["trained"] / "models"),
                "--dataset", str(paths["scored"]), "--out", str(out), "--seed", str(seed)]
    b1, b2 = w.boundaries
    return (["evaluate", "--dataset", str(paths["cohort"]), "--out", str(out),
             "--seed", str(seed), "--fold-boundaries", f"{b1},{b2}"] + w.model_flags())


def blas_env() -> dict[str, str]:
    threads = str(blas.nproc())
    return {**os.environ, **{var: threads for var in blas.THREAD_VARS}}


def run_phase(args: list[str], work: Path, spans: Path | None) -> dict | None:
    """One timed phase in a child process; None if it did not finish."""
    result_path = work / "phase.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "phase.py"), str(SRC), str(result_path),
           str(spans) if spans else "-", "--", *args]
    try:
        subprocess.run(cmd, env=blas_env(), timeout=ROUND_TIMEOUT_S, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"timed phase failed: {exc}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def check_output(w: Workload, out: Path) -> float:
    import checks

    if w.scored_patients:
        return checks.check_model_set(out, w.scored_patients)
    return checks.check_cv(out, w.report_protocol, w.net, w.patients, w.boundaries)


def check_oracle(w: Workload, paths: dict[str, Path]) -> None:
    """Run the same split with the label-reading oracle; it must score 1.0."""
    import checks
    from skelgest.ingest import assign_folds, load_dataset
    from skelgest.metrics import average_static_dynamic
    from skelgest.pipeline import (config_from_dict, cross_validate,
                                   evaluate_multiclass, oracle_factory,
                                   train_protocol)

    cohort = load_dataset(paths["cohort"])
    if w.scored_patients:
        index = json.loads((paths["trained"] / "models" / "modelset.json").read_text())
        rc = config_from_dict(index["config"])
        scored = load_dataset(paths["scored"])
        trained = train_protocol(cohort.sequences, rc, cohort.joint_map,
                                 factory=oracle_factory)
        static_cm, dynamic_cm = evaluate_multiclass(trained, scored.sequences,
                                                    scored.joint_map)
        accuracy = average_static_dynamic(static_cm.accuracy, dynamic_cm.accuracy)
    else:
        manifest = json.loads((paths["last_out"] / "run_manifest.json").read_text())
        rc = config_from_dict(manifest["config"])
        folds = assign_folds(cohort, tuple(manifest["fold_boundaries"]))
        accuracy = cross_validate(cohort, folds, rc,
                                  factory=oracle_factory).mean_average_accuracy
    checks.check_oracle(accuracy)


def _median_ms(fn, min_calls: int = 5, budget_s: float = 0.3) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        if len(times) >= 200:
            break
    return statistics.median(times) * 1e3


def kernel_metrics(w: Workload, seed: int) -> dict[str, float]:
    """One loss_and_grad and one forward of the workload's own architecture, at
    its batch, window and width; the other architecture does not run and reads
    0.  Also checks both architectures' gradients by central differences."""
    import numpy as np

    import checks
    from skelgest.neuralnet import (HeadKind, LstmSpec, TcnSpec, init_parameters, lstm,
                                    tcn)
    from skelgest.preprocess import NormMethod, feature_dim

    d = feature_dim(NormMethod.M3)
    head = HeadKind.SOFTMAX if w.n_classes > 1 else HeadKind.SIGMOID
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(w.batch, w.window, d))
    if head is HeadKind.SOFTMAX:
        y = rng.integers(w.n_classes, size=w.batch)
    else:
        y = rng.integers(2, size=w.batch).astype(np.float64)
    out = {}
    for name, module, spec in (
        ("lstm", lstm, LstmSpec(input_dim=d, hidden_dim=w.width, n_classes=w.n_classes)),
        ("tcn", tcn, TcnSpec(input_dim=d, channels=w.width, n_classes=w.n_classes)),
    ):
        model = init_parameters(spec, head, seed=seed)
        checks.check_gradient(module.loss_and_grad, model, x[:4], y[:4],
                              n_coords=24, seed=seed)
        own = name == w.net
        out[f"{name}.loss_and_grad.ms"] = (
            _median_ms(lambda: module.loss_and_grad(model, x, y)) if own else 0.0)
        out[f"{name}.forward.ms"] = (
            _median_ms(lambda: module.forward(model, x)) if own else 0.0)
    return out


def environment(seed: int, threads: int | None) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.describe(),
        "blas_threads_in_effect": threads,
        "blas_threads_requested": {var: blas_env()[var] for var in blas.THREAD_VARS},
        "nproc": blas.nproc(),
        "machine": platform.machine(),
        "seed": seed,
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    """Set up, measure and check one run; returns the full result record."""
    import checks
    import tracing

    work.mkdir(parents=True, exist_ok=True)
    errors: list[str] = []
    setup_times = []
    setup_layers = {}
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            paths = setup(w, seed, work)
        finally:
            tracer.restore()
        # The timed phase writes no cohort and saves no checkpoint: these two
        # layers run in set-up (the second only for a model-set workload).
        setup_layers = {
            "ingest.synth_write.s": tracer.seconds("ingest.synth_write"),
            "neuralnet.save_checkpoint.s": tracer.seconds("neuralnet.save_checkpoint"),
        }
        setup_losses = tracer.fit_losses()
    else:
        budget = SETUP_SHARE * seconds
        start = time.perf_counter()
        while len(setup_times) < SETUP_MIN_REPEATS or time.perf_counter() - start < budget:
            t0 = time.perf_counter()
            paths = setup(w, seed, work)
            setup_times.append(time.perf_counter() - t0)

    args = timed_args(w, seed, paths, work / "out")
    rounds: list[dict] = []
    traced: list[dict] = []
    accuracies = set()
    start = time.perf_counter()
    while True:
        for spans in [None, work / f"spans_round{len(traced)}.jsonl"] if trace else [None]:
            _fresh(work / "out")
            result = run_phase(args, work, spans)
            if result is None or result["exit_code"] != 0:
                (traced if spans else rounds).append({"failed": True})
                continue
            try:
                accuracies.add(check_output(w, work / "out"))
            except checks.CheckError as exc:
                errors.append(f"round {len(rounds) + len(traced)}: {exc}")
            result.pop("stdout")
            (traced if spans else rounds).append(result)
        if time.perf_counter() - start >= seconds:
            break
    paths["last_out"] = work / "out"

    done = [r for r in rounds if not r.get("failed")]
    done_traced = [r for r in traced if not r.get("failed")]
    attempted = len(rounds) + len(traced)
    failed = attempted - len(done) - len(done_traced)
    if len(accuracies) > 1:
        errors.append(f"rounds of one seed disagree on accuracy: {sorted(accuracies)}")
    if done and failed == 0:
        try:
            check_oracle(w, paths)
        except checks.CheckError as exc:
            errors.append(str(exc))

    metrics: dict[str, float] = {}
    if done and not trace:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in done),
            "cpu_s": statistics.median(r["cpu_s"] for r in done),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
            "accuracy": min(accuracies) if accuracies else 0.0,
        }
    elif done and done_traced:
        layers = [r["layers"] for r in done_traced]
        for name in tracing.COUNT_METRICS:
            if name in layers[0] and len({r[name] for r in layers}) > 1:
                errors.append(f"{name} differs between traced rounds")
        metrics = {**tracing.median_metrics(layers), **setup_layers}
        try:
            metrics.update(kernel_metrics(w, seed))
            losses = setup_losses if w.scored_patients else done_traced[0]["fit_losses"]
            checks.check_loss_falls(losses)
        except checks.CheckError as exc:
            errors.append(str(exc))
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in done_traced)
            - statistics.median(r["wall_s"] for r in done))
        metrics["trace.top_level_share"] = statistics.median(
            r["top_level_s"] / r["wall_s"] for r in done_traced)
        metrics = {name: metrics[name] for name in tracing.PER_LAYER}

    units = ({"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "accuracy": "ratio"} if not trace
             else {name: unit for name, (unit, _) in tracing.PER_LAYER.items()})
    threads = next((r["blas_threads"] for r in done + done_traced), None)
    for r in rounds + traced:
        r.pop("fit_losses", None)
    return {
        "workload": asdict(w),
        "trace": trace,
        "seconds": seconds,
        "env": environment(seed, threads),
        "setup_s": setup_times,
        "rounds": rounds,
        "traced_rounds": traced,
        "errors": errors,
        "summary": {
            "correct": not errors and failed == 0 and bool(metrics),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "skelgest" / "cli.py").is_file():
        print(f"error: no skelgest source under {SRC}", file=sys.stderr)
        return 2
    for var in blas.THREAD_VARS:
        os.environ[var] = str(blas.nproc())
    sys.path.insert(0, str(SRC))

    w = WORKLOADS[args.workload]
    tag = f"{w.name}_seed{args.seed}_trace{args.trace}"
    work = RUNS / "work" / f"{tag}_{os.getpid()}"
    try:
        record = run_workload(w, args.seed, args.seconds, bool(args.trace), work)
        traces = RUNS / "traces"
        for spans in sorted(work.glob("spans_*.jsonl")):
            traces.mkdir(parents=True, exist_ok=True)
            shutil.copy(spans, traces / f"{tag}_{spans.name.removeprefix('spans_')}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    for error in record["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(record["summary"]))
    return 0 if record["summary"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
