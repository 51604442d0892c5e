"""Run one seeded command list against two source trees and compare every output.

    python tools/sweep.py --tree A --tree B --out DIR [--cpus 1,2] [--expect-diff NAME]

Each tree runs the list (`COMMANDS`) as ``python -m skelgest`` with
``PYTHONPATH=<tree>/src``, from its own work directory, ``DIR/cpus<N>/<a|b>/work``.
The work directories are siblings at the same depth and every command names
its paths relative to its own, so two trees that behave alike write the same
bytes.  Each child runs on the first N CPUs of this process, pinned with
``os.sched_setaffinity``, with one BLAS thread and without ``SKELGEST_CONFIG``.

Every file that a command writes, changes or removes, and its stdout, stderr
and exit code (also kept under ``DIR/cpus<N>/<a|b>/logs``), are compared
with the first tree's run at the first CPU count.  Each differing path is
printed.  The exit code is 1 if a command that no ``--expect-diff`` names
differs, else 0.  The tool needs only the standard library, and it writes
no file in either tree: the children write no bytecode.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Sequence

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _mark_incorrect(work: Path) -> None:
    """``cohort/correct0.csv``: the cohort's manifest with every fifth
    performance flagged incorrect."""
    with open(work / "cohort" / "manifest.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    column = header.index("correct")
    for row in rows[::5]:
        row[column] = "0"
    with open(work / "cohort" / "correct0.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


Command = tuple[str, list[str], Callable[[Path], None] | None]  # name, argv, set-up

_TINY = ["--lstm-hidden", "4", "--tcn-channels", "4", "--epochs", "1", "--stride", "8",
         "--batch-size", "128"]
_CV = ["evaluate", "--dataset", "cohort", "--seed", "7", "--fold-boundaries", "1,2", *_TINY]
_TRAIN = ["train", "--dataset", "cohort", "--seed", "7", *_TINY]
_OVR = ["--protocol", "binary"]
_ROUTED = ["--frames", "16,32", "--route-threshold", "48"]
_TCN = ["--net", "tcn", *_ROUTED]

COMMANDS: list[Command] = [
    ("synth", ["synth", "--out", "cohort", "--seed", "1", "--patients", "3"], None),
    ("synth-unseen", ["synth", "--out", "unseen", "--seed", "2", "--patients", "3"], None),
    ("ingest", ["ingest", "--dataset", "cohort"], None),
    ("ingest-correct0", ["ingest", "--dataset", "cohort", "--manifest",
                         "cohort/correct0.csv"], _mark_incorrect),
    ("evaluate-lstm", [*_CV, "--frames", "16", "--out", "eval-lstm"], None),
    ("evaluate-ovr", [*_CV, *_OVR, "--frames", "16", "--rebalance", "true",
                      "--out", "eval-ovr"], None),
    ("evaluate-ovr-routed", [*_CV, *_OVR, *_ROUTED, "--out", "eval-ovr-routed"], None),
    ("evaluate-tcn-routed", [*_CV, *_TCN, "--smooth", "false", "--out", "eval-tcn"], None),
    ("evaluate-method5", [*_CV, "--frames", "16", "--method", "5", "--include-confidence",
                          "true", "--savgol-m", "7", "--savgol-order", "3",
                          "--out", "eval-method5"], None),
    ("train-lstm", [*_TRAIN, "--frames", "16", "--out", "train-lstm"], None),
    ("train-ovr", [*_TRAIN, *_OVR, "--frames", "16", "--out", "train-ovr"], None),
    ("train-tcn", [*_TRAIN, *_TCN, "--out", "train-tcn"], None),
    *((f"models-{name}", ["evaluate", "--models", f"train-{name}/models", "--dataset",
                          "unseen", "--out", f"models-{name}"], None)
      for name in ("lstm", "ovr", "tcn")),
    ("replay-lstm", ["evaluate", "--from-manifest", "eval-lstm/run_manifest.json",
                     "--out", "replay-lstm"], None),
    ("replay-ovr-epochs2", ["evaluate", "--from-manifest", "eval-ovr/run_manifest.json",
                            "--epochs", "2", "--out", "replay-ovr"], None),
    ("report-csv", ["report", "--from", "eval-lstm", "--format", "csv"], None),
    ("report-text", ["report", "--from", "eval-ovr"], None),
    ("report-json", ["report", "--from", "eval-tcn", "--format", "json"], None),
    ("gradcheck", ["gradcheck", "--seed", "3"], None),
    ("usage-frames", [*_CV, "--frames", "16,8", "--out", "bad-frames"], None),
    ("usage-fold-boundaries", [*_CV, "--frames", "16", "--fold-boundaries", "5,3",
                               "--out", "bad-folds"], None),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(root: Path) -> dict[str, str]:
    """The digest of every file under ``root``, by its path relative to it."""
    return {path.relative_to(root).as_posix(): _digest(path.read_bytes())
            for path in sorted(root.rglob("*")) if path.is_file()}


def run_tree(tree: Path, side: Path, cpus: set[int],
             commands: Sequence[Command]) -> dict[str, dict[str, str]]:
    """Run ``commands`` on ``tree`` in ``side/work``; for each command, by
    name, the digests of the files it wrote, changed or removed, by path, and
    of its ``<stdout>``, ``<stderr>`` and ``<exit>``."""
    work, logs = side / "work", side / "logs"
    work.mkdir(parents=True)
    logs.mkdir()
    env = {name: value for name, value in os.environ.items() if name != "SKELGEST_CONFIG"}
    env.update({var: "1" for var in BLAS_THREAD_VARS}, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(tree.resolve() / "src"))
    outputs, before = {}, {}
    for name, argv, set_up in commands:
        if set_up is not None:
            set_up(work)
        proc = subprocess.run([sys.executable, "-m", "skelgest", *argv], cwd=work,
                              env=env, capture_output=True,
                              preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        streams = {"stdout": proc.stdout, "stderr": proc.stderr,
                   "exit": f"{proc.returncode}\n".encode()}
        for stream, data in streams.items():
            (logs / f"{name}.{stream}").write_bytes(data)
        now = _files(work)
        outputs[name] = {path: digest for path, digest in now.items()
                         if before.get(path) != digest}
        outputs[name].update({path: "removed" for path in before if path not in now})
        outputs[name].update({f"<{stream}>": _digest(data)
                              for stream, data in streams.items()})
        before = now
    return outputs


def sweep(trees: Sequence[Path], out: Path, cpu_counts: Sequence[int],
          commands: Sequence[Command] = COMMANDS) -> tuple[list[tuple[str, str, str]], int]:
    """Run ``commands`` on each tree at each CPU count; return every
    ``(run, command, path)`` whose bytes differ from the first tree's run at
    the first CPU count, and how many outputs each run compared."""
    available = sorted(os.sched_getaffinity(0))
    runs = {(n, side): run_tree(tree, out / f"cpus{n}" / side, set(available[:n]), commands)
            for n in cpu_counts for side, tree in zip("ab", trees)}
    (_, first), *others = runs.items()
    diffs = [
        (f"cpus={n} tree {side}", name, path)
        for (n, side), outputs in others for name in first
        for path in sorted(first[name].keys() | outputs[name].keys())
        if first[name].get(path) != outputs[name].get(path)
    ]
    return diffs, sum(len(paths) for paths in first.values())


def report(diffs: Sequence[tuple[str, str, str]], expected: set[str]) -> int:
    """Print each difference; 1 if a command outside ``expected`` differs."""
    for run, name, path in diffs:
        print(f"{'expected' if name in expected else 'DIFFERS'}: {run}: {name}: {path}")
    return int(any(name not in expected for _, name, _ in diffs))


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", type=Path, required=True,
                        help="a source tree holding src/skelgest; give two")
    parser.add_argument("--out", type=Path, required=True,
                        help="a new or empty directory for the runs")
    parser.add_argument("--cpus", default="1",
                        help="comma-separated CPU counts to run at (default 1)")
    parser.add_argument("--expect-diff", action="append", default=[], metavar="NAME",
                        help="a command whose outputs may differ between the trees")
    args = parser.parse_args(argv)
    if len(args.tree) != 2:
        parser.error("give exactly two --tree")
    if missing := [t for t in args.tree if not (t / "src" / "skelgest").is_dir()]:
        parser.error(f"no src/skelgest under {missing[0]}")
    if args.out.exists() and any(args.out.iterdir()):
        parser.error(f"--out {args.out} is not empty")
    if unknown := set(args.expect_diff) - {name for name, _, _ in COMMANDS}:
        parser.error(f"--expect-diff {sorted(unknown)[0]} names no command")
    try:
        cpu_counts = [int(n) for n in args.cpus.split(",")]
    except ValueError:
        parser.error(f"--cpus {args.cpus} is not a list of integers")
    if not 1 <= min(cpu_counts) <= max(cpu_counts) <= len(os.sched_getaffinity(0)):
        parser.error(f"--cpus {args.cpus}: each count must be in 1.."
                     f"{len(os.sched_getaffinity(0))}, the CPUs this process may use")
    diffs, compared = sweep(args.tree, args.out, cpu_counts)
    code = report(diffs, set(args.expect_diff))
    runs = len(cpu_counts) * 2 - 1
    print(f"{len(COMMANDS)} commands, {compared} outputs (files, stdout, stderr, exit "
          f"codes) per run; {runs} runs compared with cpus={cpu_counts[0]} tree a: "
          f"{len(diffs)} differ")
    return code


if __name__ == "__main__":
    sys.exit(main())
