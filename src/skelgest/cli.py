"""Command-line interface: synthesize, ingest, train, evaluate, check, report.

Exit codes: 0 success, 1 assertion/check failure (failed gradient check,
diverged training, a lost fit, scoring or frames-writing worker), 2 usage or
configuration error, 3 data error (unreadable dataset, checksum mismatch,
fold without data, an output path that cannot be created or written).

Every command that draws random numbers requires an explicit ``--seed``;
there is deliberately no implicit default, so each artifact records how to
reproduce itself.  Commands that write an output directory echo their fully
resolved configuration into ``config.txt`` there, and training/evaluation
also write ``run_manifest.json``, which ``evaluate --from-manifest`` replays
bit-for-bit against the same dataset.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import (
    REGISTRY,
    RUN_DEFAULTS,
    ConfigError,
    RunConfig,
    config_from_settings,
    config_to_settings,
    default_config,
    format_value,
    given_settings,
    parse_value,
    read_index,
    render_config,
    resolve,
    write_index,
)
from .skeleton import DYNAMIC_GESTURE_IDS, STATIC_GESTURE_IDS, GestureKind, JointIndexMap
from .ingest import (
    DataError,
    Dataset,
    SynthConfig,
    assign_folds,
    dataset_checksum,
    generate_synthetic,
    load_dataset,
    manifest_entries,
    write_dataset,
)
from .neuralnet import (
    CheckpointError,
    HeadKind,
    LstmSpec,
    TcnSpec,
    TrainingDivergedError,
    grad_check,
    init_parameters,
)
from .pipeline import (
    FoldCoverageError,
    MissingClassError,
    WorkerLostError,
    cross_validate,
    evaluate_binary,  # noqa: F401 -- looked up here by perfbench/tracing.py
    evaluate_model_set,
    evaluate_multiclass,  # noqa: F401 -- looked up here by perfbench/tracing.py
    load_model_set,
    save_model_set,
    train_protocol,
)
from .metrics import (
    EvaluationReport,
    render_report,
    report_from_dict,
    write_report_files,
)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_DATA = 3


class UsageError(Exception):
    """Bad flag combination or missing required setting."""


def _registry_type(name: str):
    def parse(text: str):
        try:
            return parse_value(name, text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _add_flags(parser: argparse.ArgumentParser, names: list[str]) -> None:
    parser.add_argument(
        "--config",
        default=argparse.SUPPRESS,
        metavar="PATH",
        help="config file; defaults to $SKELGEST_CONFIG when set",
    )
    for name in names:
        key = REGISTRY[name]
        parser.add_argument(
            key.flag,
            dest=key.dest,
            default=None,
            type=_registry_type(name),
            metavar="V",
            help=f"{key.help} (default: {key.default})",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelgest",
        description="Skeletal hand-gesture classification toolkit.",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="PATH",
        help="config file; defaults to $SKELGEST_CONFIG when set",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    _add_flags(p, [
        "output.dir", "run.seed", "synth.patients", "synth.noise_sigma",
        "synth.camera_offset_range", "synth.frames_static",
        "synth.frames_dynamic",
    ])

    p = sub.add_parser("ingest", help="load and validate a dataset, print stats")
    _add_flags(p, ["dataset.root", "dataset.manifest", "joints.chin_index"])

    p = sub.add_parser("train", help="train all protocol models on a dataset")
    _add_flags(p, ["dataset.root", "dataset.manifest", "output.dir", "run.seed",
                   "joints.chin_index", "folds.boundaries", *RUN_DEFAULTS])

    p = sub.add_parser("evaluate", help="patient-held-out cross-validation")
    _add_flags(p, ["dataset.root", "dataset.manifest", "output.dir", "run.seed",
                   "joints.chin_index", "folds.boundaries", *RUN_DEFAULTS])
    p.add_argument("--from-manifest", default=None, metavar="PATH",
                   help="replay a recorded run_manifest.json exactly")
    p.add_argument("--models", default=None, metavar="DIR",
                   help="evaluate an existing model set instead of retraining")

    p = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    _add_flags(p, ["run.seed", "gradcheck.tolerance"])

    p = sub.add_parser("report", help="re-render a stored evaluation report")
    p.add_argument("--config", default=argparse.SUPPRESS, metavar="PATH",
                   help="config file; defaults to $SKELGEST_CONFIG when set")
    p.add_argument("--from", dest="from_dir", required=True, metavar="DIR",
                   help="directory containing report.json")
    p.add_argument("--format", dest="fmt", default="text",
                   choices=("text", "json", "csv"), help="output rendering")
    return parser


def _layers(args: argparse.Namespace) -> tuple[str | None, dict[str, object]]:
    """The config file (``--config``, else ``SKELGEST_CONFIG``) and the flags."""
    config_path = args.config or os.environ.get("SKELGEST_CONFIG") or None
    flags = {key.name: getattr(args, key.dest, None) for key in REGISTRY.values()}
    return config_path, flags


def _resolved(args: argparse.Namespace) -> dict[str, object]:
    return resolve(*_layers(args))


def _require_seed(resolved: dict) -> int:
    seed = resolved["run.seed"]
    if seed is None:
        raise UsageError(
            "an explicit --seed is required: this command draws random numbers"
        )
    return int(seed)


def _require_dataset(resolved: dict) -> Path:
    root = resolved["dataset.root"]
    if root is None:
        raise UsageError("--dataset is required")
    return Path(str(root))


def _load_flagged_dataset(resolved: dict, root: Path) -> Dataset:
    """The dataset under ``root`` through the manifest and chin index the
    flags and config name."""
    return load_dataset(
        root, resolved["dataset.manifest"],
        joint_map=JointIndexMap(int(resolved["joints.chin_index"])),
    )


def _echo_config(out: Path, resolved: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(render_config(resolved))


def _dataset_record(root: Path, manifest: str | None) -> dict:
    """Where the data came from: root, manifest as given (None = default) and
    the checksum of that manifest and its frames files."""
    return {
        "root": str(root),
        "manifest": None if manifest is None else str(manifest),
        "checksum": dataset_checksum(root, manifest),
    }


def _write_run_manifest(
    out: Path, command: str, rc: RunConfig, boundaries: tuple[int, int],
    dataset: dict, chin_index: int,
) -> Path:
    return write_index(
        out / "run_manifest.json", "skelgest-run", rc, command=command,
        fold_boundaries=list(boundaries), dataset=dataset, chin_index=chin_index,
    )


def cmd_synth(args: argparse.Namespace) -> int:
    resolved = _resolved(args)
    seed = _require_seed(resolved)
    sc = SynthConfig(
        n_patients=int(resolved["synth.patients"]),
        frames_static=tuple(resolved["synth.frames_static"]),
        frames_dynamic=tuple(resolved["synth.frames_dynamic"]),
        noise_sigma=float(resolved["synth.noise_sigma"]),
        camera_offset_range=float(resolved["synth.camera_offset_range"]),
        seed=seed,
    )
    ds = generate_synthetic(sc)
    out = Path(str(resolved["output.dir"]))
    write_dataset(ds, out)
    _echo_config(out, resolved)
    checksum = dataset_checksum(out)
    print(f"wrote {len(ds.sequences)} sequences for {len(ds.patients)} patients to {out}")
    print(f"dataset checksum: {checksum}")
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    resolved = _resolved(args)
    root = _require_dataset(resolved)
    ds = _load_flagged_dataset(resolved, root)
    by_kind = {GestureKind.STATIC: 0, GestureKind.DYNAMIC: 0}
    for seq in ds.sequences:
        by_kind[seq.label.kind] += 1
    print(f"dataset: {root}")
    print(f"sequences: {len(ds.sequences)}")
    print(f"patients: {len(ds.patients)} ({min(ds.patients)}..{max(ds.patients)})")
    print(
        f"static: {by_kind[GestureKind.STATIC]} sequences over "
        f"{len(STATIC_GESTURE_IDS)} classes; "
        f"dynamic: {by_kind[GestureKind.DYNAMIC]} over {len(DYNAMIC_GESTURE_IDS)}"
    )
    print(f"dataset checksum: {dataset_checksum(root, resolved['dataset.manifest'])}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    resolved = _resolved(args)
    root = _require_dataset(resolved)
    seed = _require_seed(resolved)
    rc = config_from_settings(resolved, seed)
    ds = _load_flagged_dataset(resolved, root)
    trained = train_protocol(ds.sequences, rc, ds.joint_map, fold=0, fold_name="train")
    out = Path(str(resolved["output.dir"]))
    dataset = _dataset_record(root, resolved["dataset.manifest"])
    index_path = save_model_set(trained, out / "models", dataset=dataset)
    _echo_config(out, resolved)
    _write_run_manifest(out, "train", rc, tuple(resolved["folds.boundaries"]), dataset,
                        ds.joint_map.chin_index)
    n_models = sum(len(by_key) for by_key in trained.classifiers.values())
    print(f"trained {n_models} model(s); index at {index_path}")
    return EXIT_OK


def _as_recorded(name: str, value: object, recorded: dict) -> object:
    """``value`` for ``name`` as a run with the other recorded settings would
    record it, so that ``binary`` reads ``multiclass-binary``."""
    if name in RUN_DEFAULTS:
        try:
            return config_to_settings(config_from_settings({**recorded, name: value}, 0))[name]
        except ValueError:  # no run has it, so it is not the recorded value
            pass
    return value


def _replayed(args: argparse.Namespace, recorded: dict, source: str) -> dict:
    """The resolved settings with the recorded run's values in their place; a
    flag or the config file may repeat a recorded value, not change it."""
    given = given_settings(*_layers(args))
    conflicts = [
        f"{REGISTRY[name].flag} {format_value(value)}, not {format_value(given[name])}"
        for name, value in recorded.items()
        if name in given and _as_recorded(name, given[name], recorded) != value
    ]
    if conflicts:
        raise UsageError(f"settings mismatch: {source} records {'; '.join(conflicts)}")
    return {**default_config(), **given, **recorded}


def _evaluate_model_set(args: argparse.Namespace) -> int:
    """Score an existing model set on a dataset (no training, no CV).  Scoring
    draws no random numbers and uses no folds, so the seed and the fold
    boundaries are not checked against the training run.  The patients are
    read and scored in forked workers (`evaluate_model_set`)."""
    trained = load_model_set(Path(args.models))
    settings = _replayed(args, {
        **config_to_settings(trained.config),
        "joints.chin_index": trained.joint_map.chin_index,
    }, "the model set")
    root = _require_dataset(settings)
    fold = evaluate_model_set(trained, manifest_entries(root, settings["dataset.manifest"]))
    report = EvaluationReport(**trained.config.report_header(), folds=(fold,),
                              extras={"models": str(args.models), "mode": "fixed-model-set"})
    out = Path(str(settings["output.dir"]))
    write_report_files(report, out)
    _echo_config(out, settings)
    print(render_report(report, "text"), end="")
    return EXIT_OK


def _evaluate_from_manifest(args: argparse.Namespace) -> int:
    """Replay a recorded evaluation exactly; the dataset must match its checksum."""
    path = Path(args.from_manifest)
    manifest, rc = read_index(
        path, "skelgest-run",
        ("command", "fold_boundaries", "dataset.root", "dataset.checksum"),
    )
    if manifest["command"] != "evaluate":
        raise DataError(f"{path}: records a {manifest['command']!r} run, "
                        "and only an 'evaluate' run can be replayed")
    boundaries = tuple(manifest["fold_boundaries"])
    chin_index = manifest["chin_index"]
    settings = _replayed(args, {
        **config_to_settings(rc),
        "run.seed": rc.seed,
        "joints.chin_index": chin_index,
        "folds.boundaries": boundaries,
    }, "the run manifest")
    root = Path(str(settings["dataset.root"] or manifest["dataset"]["root"]))
    data_manifest = settings["dataset.manifest"] or manifest["dataset"].get("manifest")
    dataset = _dataset_record(root, data_manifest)
    recorded = manifest["dataset"]["checksum"]
    if dataset["checksum"] != recorded:
        raise DataError(
            f"dataset checksum mismatch: manifest records {recorded}, "
            f"{root} has {dataset['checksum']}"
        )
    ds = load_dataset(root, data_manifest, joint_map=JointIndexMap(chin_index))
    settings = {**settings, "dataset.root": str(root), "dataset.manifest": data_manifest}
    return _cross_validate(settings, ds, rc, boundaries, dataset)


def _cross_validate(
    resolved: dict, ds: Dataset, rc: RunConfig, boundaries: tuple[int, int],
    dataset: dict,
) -> int:
    """Cross-validate, then write the report files and the run manifest."""
    report = cross_validate(ds, assign_folds(ds, boundaries), rc)
    out = Path(str(resolved["output.dir"]))
    write_report_files(report, out)
    _echo_config(out, resolved)
    _write_run_manifest(out, "evaluate", rc, boundaries, dataset, ds.joint_map.chin_index)
    print(render_report(report, "text"), end="")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.from_manifest and args.models:
        raise UsageError("--from-manifest and --models are mutually exclusive")
    if args.from_manifest:
        return _evaluate_from_manifest(args)
    if args.models:
        return _evaluate_model_set(args)
    resolved = _resolved(args)
    root = _require_dataset(resolved)
    seed = _require_seed(resolved)
    rc = config_from_settings(resolved, seed)
    ds = _load_flagged_dataset(resolved, root)
    dataset = _dataset_record(root, resolved["dataset.manifest"])
    return _cross_validate(resolved, ds, rc, tuple(resolved["folds.boundaries"]), dataset)


def cmd_gradcheck(args: argparse.Namespace) -> int:
    resolved = _resolved(args)
    seed = _require_seed(resolved)
    tolerance = float(resolved["gradcheck.tolerance"])
    checks = [
        (LstmSpec(input_dim=3, hidden_dim=4, n_classes=2), HeadKind.SOFTMAX),
        (LstmSpec(input_dim=3, hidden_dim=4, n_classes=1), HeadKind.SIGMOID),
        (TcnSpec(input_dim=3, channels=4, dilations=(1, 2), n_classes=2), HeadKind.SOFTMAX),
        (TcnSpec(input_dim=3, channels=4, dilations=(1, 2), n_classes=1), HeadKind.SIGMOID),
    ]
    all_passed = True
    for i, (spec, head) in enumerate(checks):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        model = init_parameters(spec, head, seed=int(rng.integers(2**32)))
        x = rng.normal(size=(2, 6, spec.input_dim))
        if head is HeadKind.SOFTMAX:
            targets = rng.integers(spec.n_classes, size=2)
        else:
            targets = rng.integers(2, size=2).astype(np.float64)
        report = grad_check(model, x, targets, tolerance=tolerance)
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"{report.arch}/{report.head}: {report.n_checked} parameters, "
            f"max relative error {report.max_rel_error:.3e} "
            f"(tolerance {tolerance:g}) {verdict}"
        )
        all_passed = all_passed and report.passed
    return EXIT_OK if all_passed else EXIT_CHECK


def cmd_report(args: argparse.Namespace) -> int:
    report_path = Path(args.from_dir) / "report.json"
    if not report_path.is_file():
        raise DataError(f"no report.json under {args.from_dir}")
    try:  # bad UTF-8 or JSON is a ValueError; a missing or mistyped field any of the three
        text = render_report(report_from_dict(json.loads(report_path.read_text())), args.fmt)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{report_path}: not a readable report ({exc!r})") from None
    print(text, end="")
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "gradcheck": cmd_gradcheck,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, MissingClassError, FoldCoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # a path that cannot be read, created or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergedError, WorkerLostError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
