"""File parsing, dataset loading, fold assignment, and synthetic generation."""

import dataclasses
import warnings

import numpy as np
import pytest

from skelgest import ingest, pool
from skelgest.ingest import (
    DEFAULT_FOLD_BOUNDARIES,
    DataError,
    Dataset,
    ParseError,
    SynthConfig,
    assign_folds,
    dataset_checksum,
    generate_synthetic,
    load_dataset,
    parse_skeletal_file,
    serialize_frames,
    write_dataset,
)
from skelgest.skeleton import (
    ALL_GESTURE_IDS,
    DEFAULT_JOINT_MAP,
    N_JOINTS,
    GestureKind,
)
from skelgest.preprocess import NormMethod, WindowSpec, preprocess_sequence


def _block(rows=5, cols=14, base=0.0):
    lines = []
    for r in range(rows):
        lines.append(" ".join(str(base + r * 100 + c) for c in range(cols)))
    return "\n".join(lines)


class TestParseSkeletalFile:
    def test_two_blocks(self):
        text = _block() + "\n" + _block(base=1000.0) + "\n"
        coords, conf = parse_skeletal_file(text)
        assert coords.shape == (2, N_JOINTS, 2) and conf.shape == (2, N_JOINTS)
        assert coords[0, 0, 0] == 0.0
        assert coords[0, 0, 1] == 100.0
        assert conf[0, 0] == 200.0
        assert coords[1, 3, 0] == 1003.0

    def test_wrong_value_count_names_line(self):
        bad = _block().splitlines()
        bad[2] = " ".join(["1"] * 13)
        with pytest.raises(ParseError, match=":3:"):
            parse_skeletal_file("\n".join(bad))

    def test_non_numeric_token_names_line(self):
        bad = _block().splitlines()
        bad[4] = bad[4].replace("413", "oops")
        with pytest.raises(ParseError, match=":5:.*oops"):
            parse_skeletal_file("\n".join(bad))

    def test_truncated_final_block(self):
        text = _block() + "\n" + "\n".join(_block().splitlines()[:3])
        with pytest.raises(ParseError, match=r":6: truncated final block \(3 of 5"):
            parse_skeletal_file(text)

    def test_empty_input_yields_no_frames(self):
        for text in ("", "   \n\n"):
            coords, conf = parse_skeletal_file(text)
            assert coords.shape == (0, N_JOINTS, 2) and conf.shape == (0, N_JOINTS)

    def test_round_trip_exact(self):
        """serialize(parse(f)) keeps every number bit-for-bit (independent of
        the formatting the writer chooses)."""
        rng = np.random.default_rng(11)
        coords = rng.normal(size=(4, N_JOINTS, 2)) * [1e3, 1e-3]
        coords[0, 0, 0] = -0.0
        conf = rng.random((4, N_JOINTS))
        text = serialize_frames(coords, conf)
        parsed = parse_skeletal_file(text)
        for original, back in zip((coords, conf), parsed):
            assert back.shape == original.shape
            assert np.array_equal(back, original)
            assert back.tobytes() == original.tobytes()  # bit-for-bit, -0.0 included
        # the two aux rows of each block are written as zeros
        blocks = ingest._parse_lines(text.splitlines(), "<string>").reshape(4, 5, N_JOINTS)
        assert np.array_equal(blocks[:, 3:], np.zeros((4, 2, N_JOINTS)))


def _exact(text, source="<string>"):
    """The per-line parser's result, split as `parse_skeletal_file` splits it."""
    blocks = ingest._parse_lines(text.splitlines(), source).reshape(-1, 5, N_JOINTS)
    return blocks[:, :2].transpose(0, 2, 1), blocks[:, 2]


def _outcome(parse, text):
    try:
        return [(a.shape, a.tobytes()) for a in parse(text)]
    except ParseError as exc:
        return f"ParseError: {exc}"


def _frames_text(sep=" ", end="\n"):
    """Two frames of random values, each written with ``repr``."""
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(10, N_JOINTS)) * 10.0 ** rng.integers(-5, 6, (1, N_JOINTS))
    return "".join(sep.join(map(repr, row)) + end for row in rows.tolist())


def _with_token(token, row=1, col=5):
    """A valid two-frame text with one value replaced by ``token``; the
    default is a y coordinate, a value that the parser returns."""
    lines = _frames_text().splitlines()
    tokens = lines[row].split()
    tokens[col] = token
    lines[row] = " ".join(tokens)
    return "\n".join(lines) + "\n"


EDGE_VALUES = ["-0.0", "4.9e-324", "2.2250738585072014e-308", "1e500", "-1e-400",
               "nan", "-nan", "+nan", "NaN", "inF", "-iNfInItY"]
MALFORMED_TOKENS = ["oops", "1_000", "\uff11", "nan(1)", "0x1p3", "1.5\x00"]


def _differential_inputs():
    rng = np.random.default_rng(2024)
    values = rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, 200)
    cases = {
        "repr": "".join(" ".join(map(repr, chunk)) + "\n"
                        for chunk in values[:140].reshape(10, N_JOINTS).tolist()),
        "17-digit": "".join(" ".join(f"{v:.17g}" for v in chunk) + "\n"
                            for chunk in values[60:200].reshape(10, N_JOINTS).tolist()),
    }
    for token in EDGE_VALUES + MALFORMED_TOKENS:
        cases[f"token {token!r}"] = _with_token(token)
    cases["token 'oops' in an aux row"] = _with_token("oops", row=3)
    for sep in ["\t", "\x0c", "\xa0", "\u3000", "\x1c"]:
        cases[f"separator {sep!r}"] = _frames_text(sep=sep)
    cases["trailing spaces"] = _frames_text(sep=" ", end="   \n")
    cases["CRLF"] = _frames_text(end="\r\n")
    lines = _frames_text().splitlines()
    cases["blank lines between blocks"] = "\n".join(lines[:5] + ["", "  \t"] + lines[5:])
    cases["empty"] = ""
    cases["whitespace only"] = "  \n\t\n \r\n"
    for width in (13, 15):
        bad = list(lines)
        bad[7] = " ".join(bad[7].split()[:13] + ["1.0", "2.0"][: width - 13])
        cases[f"{width} columns"] = "\n".join(bad)
    cases["truncated final block"] = "\n".join(lines[:8])
    # 10 rows of 7 hold as many values as one 5x14 block
    cases["7 columns in every row"] = "".join(
        " ".join(line.split()[:7]) + "\n" for line in lines)
    return cases


DIFFERENTIAL_INPUTS = _differential_inputs()


class TestParserFastPath:
    """`parse_skeletal_file` against the per-line parser, called directly."""

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_INPUTS))
    def test_same_bits_or_same_error(self, name):
        text = DIFFERENTIAL_INPUTS[name]
        assert _outcome(parse_skeletal_file, text) == _outcome(_exact, text)

    def test_nan_sign_bit_is_kept(self):
        for token, negative in [("nan", False), ("-nan", True), ("+nan", False)]:
            _, conf = parse_skeletal_file(_with_token(token, row=2, col=0))
            assert np.isnan(conf[0, 0]) and np.signbit(conf[0, 0]) == negative

    def test_tokens_float_reads_and_loadtxt_does_not(self):
        """`1_000` and a fullwidth or Arabic-Indic digit take the fallback and
        read as `float` reads them."""
        for token, value in [("1_000", 1000.0), ("\uff11", 1.0), ("\u0663", 3.0)]:
            _, conf = parse_skeletal_file(_with_token(token, row=2, col=0))
            assert conf[0, 0] == value

    def test_random_tokens_agree(self):
        """Rows of random tokens over an alphabet of number syntax."""
        rng = np.random.default_rng(7)
        alphabet = list("0123456789.eE+-_ ") + ["nan", "inf", "infinity", "\uff11",
                                                "\t", "\xa0", "x", "(", ")"]
        base = _frames_text().splitlines()
        for _ in range(300):
            token = "".join(rng.choice(alphabet, size=rng.integers(1, 6)))
            lines = list(base)
            row = int(rng.integers(len(lines)))
            tokens = lines[row].split()
            tokens[int(rng.integers(N_JOINTS))] = token
            lines[row] = " ".join(tokens)
            text = "\n".join(lines)
            assert _outcome(parse_skeletal_file, text) == _outcome(_exact, text), repr(token)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    @pytest.mark.parametrize("blank", [False, True])
    def test_well_formed_files_skip_the_per_line_parser(self, end, blank, monkeypatch):
        rng = np.random.default_rng(3)
        coords, conf = rng.normal(size=(6, N_JOINTS, 2)), rng.random((6, N_JOINTS))
        lines = serialize_frames(coords, conf).splitlines()
        if blank:  # a blank line after each block
            for i in range(len(lines) - 1, 0, -5):
                lines.insert(i + 1, "")
        text = end.join(lines) + end
        expected = _outcome(_exact, text)

        def per_line(lines, source):
            raise AssertionError("the per-line parser ran on a well-formed file")

        monkeypatch.setattr(ingest, "_parse_lines", per_line)
        assert _outcome(parse_skeletal_file, text) == expected

    @pytest.mark.parametrize("action", ["error", "always"])
    def test_no_warning_reaches_the_caller(self, action):
        """Neither as an error nor as a printed warning, whatever the
        caller's warning filter."""
        malformed = ["empty", "whitespace only", "13 columns", "15 columns",
                     "truncated final block", *(f"token {t!r}" for t in MALFORMED_TOKENS)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            for name in malformed:
                try:
                    parse_skeletal_file(DIFFERENTIAL_INPUTS[name])
                except ParseError:
                    pass
        assert caught == []


def _valid_block():
    """One frame whose confidence row stays inside [0, 1]."""
    lines = []
    for r in range(5):
        if r == 2:
            lines.append(" ".join("0.5" for _ in range(14)))
        else:
            lines.append(" ".join(str(r * 100.0 + c) for c in range(14)))
    return "\n".join(lines)


def _write_tiny_dataset(root, rows, frame_text=None):
    frames_dir = root / "frames"
    frames_dir.mkdir(parents=True, exist_ok=True)
    lines = ["patient_id,gesture_id,correct,frames_path"]
    for patient, gid, correct, fname in rows:
        path = frames_dir / fname
        path.write_text(frame_text if frame_text is not None else _valid_block() + "\n")
        lines.append(f"{patient},{gid},{correct},frames/{fname}")
    (root / "manifest.csv").write_text("\n".join(lines) + "\n")


class TestLoadDataset:
    def test_incorrect_rows_filtered(self, tmp_path):
        _write_tiny_dataset(
            tmp_path,
            [
                (1, "A1_1", 1, "a.txt"),
                (1, "A1_2", 0, "b.txt"),
                (2, "P2_5", "true", "c.txt"),
            ],
        )
        ds = load_dataset(tmp_path)
        assert [(s.patient_id, s.label.id) for s in ds.sequences] == [(1, "A1_1"), (2, "P2_5")]

    def test_unknown_gesture_id(self, tmp_path):
        _write_tiny_dataset(tmp_path, [(1, "Z9_9", 1, "a.txt")])
        with pytest.raises(DataError, match="Z9_9"):
            load_dataset(tmp_path)

    def test_all_incorrect_is_empty_dataset_error(self, tmp_path):
        _write_tiny_dataset(tmp_path, [(1, "A1_1", 0, "a.txt")])
        with pytest.raises(DataError, match="[Ee]mpty|no sequences"):
            load_dataset(tmp_path)

    def test_missing_frames_file(self, tmp_path):
        _write_tiny_dataset(tmp_path, [(1, "A1_1", 1, "a.txt")])
        (tmp_path / "frames" / "a.txt").unlink()
        with pytest.raises(DataError, match="a.txt"):
            load_dataset(tmp_path)

    def test_empty_frames_file(self, tmp_path):
        _write_tiny_dataset(tmp_path, [(1, "A1_1", 1, "a.txt")], frame_text="\n")
        with pytest.raises(DataError, match="no frames"):
            load_dataset(tmp_path)

    def test_bad_header(self, tmp_path):
        _write_tiny_dataset(tmp_path, [(1, "A1_1", 1, "a.txt")])
        body = (tmp_path / "manifest.csv").read_text().splitlines()
        body[0] = "foo,bar"
        (tmp_path / "manifest.csv").write_text("\n".join(body) + "\n")
        with pytest.raises(DataError, match="header"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("rows,line", [
        ("1,A1_1,1", 3), ("1,A1_1,1,frames/a.txt,extra", 3), ("\n\n1,A1_1,1", 5),
    ])
    @pytest.mark.parametrize("read", [load_dataset, dataset_checksum])
    def test_row_without_four_fields(self, read, rows, line, tmp_path):
        _write_tiny_dataset(tmp_path, [(1, "A1_1", 1, "a.txt")])
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(manifest.read_text() + rows + "\n")
        with pytest.raises(DataError, match=f"{manifest}:{line}: expected 4"):
            read(tmp_path)

    @pytest.mark.parametrize("read", [load_dataset, dataset_checksum])
    def test_manifest_that_does_not_decode(self, read, tmp_path):
        _write_tiny_dataset(tmp_path, [(1, "A1_1", 1, "a.txt"), (1, "A1_2", 1, "b.txt")])
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(manifest.read_bytes().replace(b"A1_2", b"A1_\xff"))
        with pytest.raises(DataError, match=f"{manifest}: cannot read manifest: .*0xff"):
            read(tmp_path)

    def test_bad_correct_flag(self, tmp_path):
        _write_tiny_dataset(tmp_path, [(1, "A1_1", "maybe", "a.txt")])
        with pytest.raises(DataError, match="maybe"):
            load_dataset(tmp_path)

    def test_incorrect_rows_skipped_before_parsing(self, tmp_path):
        """A corrupt frames file behind correct=0 must not fail the load."""
        _write_tiny_dataset(tmp_path, [(1, "A1_1", 1, "a.txt")])
        frames_dir = tmp_path / "frames"
        (frames_dir / "bad.txt").write_text("not numbers at all\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(manifest.read_text() + "1,A1_2,0,frames/bad.txt\n")
        ds = load_dataset(tmp_path)
        assert len(ds.sequences) == 1


class TestAssignFolds:
    @pytest.mark.parametrize(
        "patient,fold", [(1, 1), (7, 1), (15, 1), (16, 2), (35, 2), (36, 3), (55, 3)]
    )
    def test_default_boundaries(self, patient, fold):
        ds = generate_synthetic(SynthConfig(n_patients=2, seed=0))
        split = assign_folds(ds)
        assert split.fold_of(patient) == fold

    def test_default_boundaries_value(self):
        assert DEFAULT_FOLD_BOUNDARIES == (15, 35)

    def test_non_increasing_boundaries_rejected(self):
        ds = generate_synthetic(SynthConfig(n_patients=2, seed=0))
        with pytest.raises(ValueError, match="increasing"):
            assign_folds(ds, boundaries=(10, 10))

    def test_partition_is_disjoint_and_exhaustive(self):
        ds = generate_synthetic(SynthConfig(n_patients=9, seed=1))
        split = assign_folds(ds, boundaries=(3, 6))
        assignment = split.fold_of_patient
        assert set(assignment) == set(ds.patients)
        for fold in (1, 2, 3):
            assert [p for p in ds.patients if assignment[p] == fold]
        assert sorted(assignment.values()) == [1] * 3 + [2] * 3 + [3] * 3


class TestSynthConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n_patients=0)
        with pytest.raises(ValueError):
            SynthConfig(n_patients=2, noise_sigma=-1.0)
        with pytest.raises(ValueError):
            SynthConfig(n_patients=2, frames_static=(20, 10))

    @pytest.mark.parametrize("name", ["noise_sigma", "camera_offset_range"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_refuses_a_non_finite_setting(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            SynthConfig(n_patients=2, **{name: value})


class TestGenerateSynthetic:
    def test_same_seed_bitwise_identical(self):
        cfg = SynthConfig(n_patients=3, seed=77)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert len(a.sequences) == len(b.sequences)
        for sa, sb in zip(a.sequences, b.sequences):
            assert sa.patient_id == sb.patient_id and sa.label == sb.label
            assert sa.coords.tobytes() == sb.coords.tobytes()

    def test_different_seed_differs(self):
        a = generate_synthetic(SynthConfig(n_patients=2, seed=1))
        b = generate_synthetic(SynthConfig(n_patients=2, seed=2))
        assert any(
            sa.coords[0, 0, 0] != sb.coords[0, 0, 0]
            for sa, sb in zip(a.sequences, b.sequences)
        )

    def test_every_class_once_per_patient(self):
        ds = generate_synthetic(SynthConfig(n_patients=6, seed=5))
        assert len(ds.sequences) == 6 * 29
        from collections import Counter

        counts = Counter(s.label.id for s in ds.sequences)
        assert all(counts[gid] == 6 for gid in ALL_GESTURE_IDS)

    def test_zero_noise_static_frames_identical(self):
        """noise 0, offset 0: every frame of one static class is the same pose
        everywhere -- within a sequence and across patients."""
        ds = generate_synthetic(
            SynthConfig(n_patients=3, noise_sigma=0.0, camera_offset_range=0.0, seed=9)
        )
        static = [s for s in ds.sequences if s.label.id == "A1_2"]
        assert len(static) == 3
        reference = static[0].coords[0]
        for seq in static:
            for frame in seq.coords:
                assert np.array_equal(frame, reference)

    def test_dynamic_frames_move(self):
        ds = generate_synthetic(
            SynthConfig(n_patients=1, noise_sigma=0.0, camera_offset_range=0.0, seed=9)
        )
        dyn = next(s for s in ds.sequences if s.label.kind is GestureKind.DYNAMIC)
        xs = dyn.coords[:, 4, 0]
        assert xs.max() - xs.min() > 0.1

    def test_default_confidence(self):
        """A source that reports no confidence gets 1.0 for every joint."""
        ds = generate_synthetic(SynthConfig(n_patients=1, seed=2))
        for seq in ds.sequences:
            assert seq.conf.shape == (seq.n_frames, N_JOINTS)
            assert np.all(seq.conf == 1.0)

    def test_frame_counts_within_ranges(self):
        cfg = SynthConfig(n_patients=4, seed=3)
        ds = generate_synthetic(cfg)
        for seq in ds.sequences:
            lo, hi = (
                cfg.frames_static
                if seq.label.kind is GestureKind.STATIC
                else cfg.frames_dynamic
            )
            assert lo <= seq.n_frames <= hi

    def test_translation_washes_out_of_method1_features(self):
        """Zero noise, nonzero per-patient camera offset: chin-relative
        features are identical across patients for a static class."""
        ds = generate_synthetic(
            SynthConfig(n_patients=3, noise_sigma=0.0, camera_offset_range=60.0, seed=4)
        )
        sequences = [s for s in ds.sequences if s.label.id == "A2_4"]
        windows = [
            preprocess_sequence(
                s, NormMethod.M1, WindowSpec(16), DEFAULT_JOINT_MAP, savgol_spec=None
            )[0]
            for s in sequences
        ]
        for other in windows[1:]:
            assert np.max(np.abs(other - windows[0])) <= 1e-9


class TestWriteAndChecksum:
    def test_written_bytes(self, tmp_path):
        """A two-frame sequence written through `write_dataset`: `repr` floats,
        two zero aux rows per frame and a correct flag of 1."""
        coords = np.zeros((2, N_JOINTS, 2))
        coords[:, :, 0] = np.arange(N_JOINTS) + [[0.0], [0.25]]
        coords[:, :, 1] = 100 + np.arange(N_JOINTS) / 8 - [[0.0], [1.0]]
        coords[0, 0, 0] = -0.0
        coords[1, 0, 1] = 1e-05
        coords[1, 13, 0] = 0.1 + 0.2
        conf = np.ones((2, N_JOINTS))
        conf[0, 0], conf[1, 13] = 0.5, 0.0
        synthetic = generate_synthetic(SynthConfig(n_patients=1, seed=0))
        seq = next(s for s in synthetic.sequences if s.label.id == "P2_5")
        seq = dataclasses.replace(seq, patient_id=7, coords=coords, conf=conf)
        manifest = write_dataset(Dataset((seq,), DEFAULT_JOINT_MAP), tmp_path)

        assert manifest == tmp_path / "manifest.csv"
        assert manifest.read_bytes() == (
            b"patient_id,gesture_id,correct,frames_path\r\n"
            b"7,P2_5,1,frames/p007_P2_5.txt\r\n"
        )
        zeros = " ".join(["0.0"] * N_JOINTS) + "\n"
        assert sorted(p.name for p in (tmp_path / "frames").iterdir()) == ["p007_P2_5.txt"]
        assert (tmp_path / "frames" / "p007_P2_5.txt").read_bytes().decode() == (
            "-0.0 1.0 2.0 3.0 4.0 5.0 6.0 7.0 8.0 9.0 10.0 11.0 12.0 13.0\n"
            "100.0 100.125 100.25 100.375 100.5 100.625 100.75 100.875 101.0 101.125 "
            "101.25 101.375 101.5 101.625\n"
            "0.5 1.0 1.0 1.0 1.0 1.0 1.0 1.0 1.0 1.0 1.0 1.0 1.0 1.0\n"
            + zeros + zeros +
            "0.25 1.25 2.25 3.25 4.25 5.25 6.25 7.25 8.25 9.25 10.25 11.25 12.25 "
            "0.30000000000000004\n"
            "1e-05 99.125 99.25 99.375 99.5 99.625 99.75 99.875 100.0 100.125 100.25 "
            "100.375 100.5 100.625\n"
            "1.0 1.0 1.0 1.0 1.0 1.0 1.0 1.0 1.0 1.0 1.0 1.0 1.0 0.0\n"
            + zeros + zeros
        )

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_cohort_bytes_at_any_worker_count(self, cpus, tmp_path, monkeypatch):
        """A whole synthetic cohort, written by one writer per CPU (at most
        one per file), has the same bytes at every count."""
        workers = []
        fork_map = pool.fork_map
        monkeypatch.setattr(pool, "_cpus", lambda: cpus)
        monkeypatch.setattr(pool, "fork_map", lambda fn, n, state, count, **kw: (
            workers.append(count) or fork_map(fn, n, state, count, **kw)))
        write_dataset(generate_synthetic(SynthConfig(n_patients=3, seed=1)), tmp_path)
        assert workers == [cpus]
        assert dataset_checksum(tmp_path) == (
            "d5843a59f1dc0f94236fd7c4f8c4f6735b60185562f836e74c0517990db7bf08")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["frames", "manifest.csv"]

    @pytest.mark.parametrize("seed", range(4))
    def test_serialized_text_is_one_repr_per_value(self, seed):
        """`serialize_frames` writes, for each frame, its x, y and confidence
        rows and two zero aux rows, each value as `repr` writes it."""
        rng = np.random.default_rng(seed)
        n_frames = int(rng.integers(1, 9))
        coords = rng.normal(0.0, 10.0 ** rng.integers(-6, 7), size=(n_frames, N_JOINTS, 2))
        conf = rng.uniform(0.0, 1.0, size=(n_frames, N_JOINTS))
        specials = [-0.0, 1e-05, 5e-324, 1e300, 0.1 + 0.2, np.inf, -np.inf, 0.0, 1.0]
        coords.flat[rng.choice(coords.size, len(specials), replace=False)] = specials
        conf.flat[rng.choice(conf.size, 3, replace=False)] = [1.0, 0.0, 0.5]

        aux = np.zeros((n_frames, 2, N_JOINTS))
        blocks = np.concatenate(
            [np.transpose(coords, (0, 2, 1)), conf[:, None, :], aux], axis=1
        )
        reference = "".join(
            " ".join(map(repr, row)) + "\n" for row in blocks.reshape(-1, N_JOINTS).tolist()
        )
        assert serialize_frames(coords, conf) == reference

    def test_write_load_round_trip(self, tmp_path):
        ds = generate_synthetic(SynthConfig(n_patients=2, seed=21))
        write_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert len(loaded.sequences) == len(ds.sequences)
        key = lambda s: (s.patient_id, s.label.id)
        for a, b in zip(
            sorted(ds.sequences, key=key), sorted(loaded.sequences, key=key)
        ):
            assert a.n_frames == b.n_frames
            assert np.array_equal(a.coords, b.coords)
            assert np.array_equal(a.conf, b.conf)

    def test_checksum_stable_and_sensitive(self, tmp_path):
        ds = generate_synthetic(SynthConfig(n_patients=2, seed=21))
        write_dataset(ds, tmp_path)
        first = dataset_checksum(tmp_path)
        assert first == dataset_checksum(tmp_path)
        target = next((tmp_path / "frames").iterdir())
        target.write_text(target.read_text().replace("0", "1", 1))
        assert dataset_checksum(tmp_path) != first
