"""`tools/sweep.py` on a toy command list: a tree run against itself writes
the same bytes, and a copy with one edited synthesis constant does not."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("sweep", ROOT / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)

TOY = [
    ("synth", ["synth", "--out", "cohort", "--seed", "1", "--patients", "1"], None),
    ("ingest-correct0", ["ingest", "--dataset", "cohort", "--manifest",
                         "correct0.csv"], sweep._mark_incorrect),
    ("usage-frames", ["evaluate", "--dataset", "cohort", "--seed", "1", "--frames", "16,8"],
     None),
]


def test_a_tree_against_itself_writes_the_same_bytes(tmp_path, capsys):
    diffs, compared = sweep.sweep([ROOT, ROOT], tmp_path / "out", [1], TOY)
    assert diffs == []
    # synth: 29 frames files, manifest.csv, config.txt; the set-up's manifest; 3 streams each
    assert compared == 29 + 2 + 1 + 3 * len(TOY)
    logs = tmp_path / "out" / "cpus1" / "b" / "logs"
    assert (logs / "ingest-correct0.exit").read_text() == "0\n"
    assert (logs / "usage-frames.exit").read_text() == "2\n"
    assert "window pair must be increasing" in (logs / "usage-frames.stderr").read_text()
    assert sweep.report(diffs, set()) == 0


def test_an_edited_synthesis_constant_differs(tmp_path, capsys):
    edited = tmp_path / "edited"
    shutil.copytree(ROOT / "src", edited / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    ingest = edited / "src" / "skelgest" / "ingest.py"
    text = ingest.read_text()
    assert "_MOTION_AMPLITUDE = 0.35\n" in text
    ingest.write_text(text.replace("_MOTION_AMPLITUDE = 0.35\n", "_MOTION_AMPLITUDE = 0.36\n"))
    tree_before = sweep._files(edited)

    diffs, _ = sweep.sweep([ROOT, edited], tmp_path / "out", [1], TOY)
    assert sweep._files(edited) == tree_before  # the tool writes nothing in a tree
    commands = {name for _, name, _ in diffs}
    assert commands == {"synth", "ingest-correct0"}
    paths = {path for _, name, path in diffs if name == "synth"}
    assert "<stdout>" in paths and any(p.startswith("cohort/frames/") for p in paths)
    assert sweep.report(diffs, set()) == 1
    assert "DIFFERS: cpus=1 tree b: synth: <stdout>" in capsys.readouterr().out
    assert sweep.report(diffs, {"synth", "ingest-correct0"}) == 0


@pytest.mark.parametrize(
    "argv,message",
    [(["--tree", "."], "exactly two --tree"),
     (["--tree", ".", "--tree", "nowhere"], "no src/skelgest under nowhere"),
     (["--tree", ".", "--tree", ".", "--expect-diff", "bogus"], "bogus names no command"),
     (["--tree", ".", "--tree", ".", "--cpus", "0"], "each count must be in 1.."),
     (["--tree", ".", "--tree", ".", "--cpus", "1,x"], "is not a list of integers")],
)
def test_bad_arguments_are_usage_errors(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    with pytest.raises(SystemExit) as exc:
        sweep.main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
