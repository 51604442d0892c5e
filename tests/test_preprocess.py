"""Smoothing, windowing, and the five normalization methods.

Independent oracles used here: exact least-squares rationals, scipy's
Savitzky-Golay routines, numpy.polyfit on impulse responses, and direct
per-joint recomputation with math.hypot / math.atan2.

A sequence's windows are checked through ``preprocess_sequence`` with M1
features and no smoothing: each M1 window is its raw slice minus the chin
of its first frame, which the tests recompute exactly.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.signal

from skelgest.preprocess import (
    DegenerateReferenceError,
    NormMethod,
    SavgolSpec,
    WindowSpec,
    feature_dim,
    normalize_window,
    preprocess_sequence,
    savgol_coefficients,
    smooth_series,
)
from skelgest.skeleton import (
    DEFAULT_JOINT_MAP,
    N_JOINTS,
    GestureLabel,
    GestureSequence,
    JointIndexMap,
)

LABEL = GestureLabel("A1_1")
CHIN = DEFAULT_JOINT_MAP.chin_index


def _make_sequence(coords, confidence=None, label=LABEL, patient_id=1):
    coords = np.asarray(coords, dtype=np.float64)
    if confidence is None:
        confidence = np.full(coords.shape[:2], 0.9)
    return GestureSequence(patient_id, label, coords, confidence)


def _random_sequence(rng, t, **kwargs):
    return _make_sequence(rng.normal(size=(t, N_JOINTS, 2)) * 50 + 200, **kwargs)


def _features(coords, method, joint_map=DEFAULT_JOINT_MAP, pad=0, confidence=None):
    """Features of one window: (W, 14, 2) coordinates -> (W, D)."""
    conf = None if confidence is None else np.asarray(confidence)[None]
    return normalize_window(np.asarray(coords)[None], method, joint_map, conf, pad)[0]


def _raw_windows(seq, spec):
    """Unsmoothed M1 windows plus confidence columns of a sequence."""
    return preprocess_sequence(
        seq, NormMethod.M1, spec, DEFAULT_JOINT_MAP, savgol_spec=None,
        include_confidence=True,
    )


def _m1_of(coords):
    """Exact M1 oracle of one unpadded window: offsets from its first chin."""
    return (coords - coords[0, CHIN]).reshape(len(coords), 2 * N_JOINTS)


class TestSavgolCoefficients:
    def test_quadratic_five_point_exact_rationals(self):
        """Degree-2 fit on 5 points has the classic closed form
        (-3, 12, 17, 12, -3) / 35."""
        expected = [Fraction(n, 35) for n in (-3, 12, 17, 12, -3)]
        got = savgol_coefficients(5, 2)
        assert np.max(np.abs(got - np.array([float(f) for f in expected]))) <= 1e-15

    @pytest.mark.parametrize("m,order", [(5, 2), (7, 2), (9, 3), (11, 4), (5, 3)])
    def test_matches_scipy(self, m, order):
        ours = savgol_coefficients(m, order)
        # scipy returns weights ordered for correlation; flip for convolution
        # symmetry (they coincide anyway for these symmetric kernels).
        theirs = scipy.signal.savgol_coeffs(m, order)
        assert np.max(np.abs(ours - theirs[::-1])) <= 1e-12

    @pytest.mark.parametrize("m,order", [(5, 2), (7, 3)])
    def test_matches_polyfit_impulse(self, m, order):
        """Weight k = value at t=0 of the least-squares polynomial fitted to a
        unit impulse at position k."""
        half = m // 2
        t = np.arange(-half, half + 1, dtype=np.float64)
        ours = savgol_coefficients(m, order)
        for k in range(m):
            impulse = np.zeros(m)
            impulse[k] = 1.0
            poly = np.polynomial.polynomial.polyfit(t, impulse, order)
            assert abs(ours[k] - poly[0]) <= 1e-12

    def test_symmetric_and_normalized(self):
        for m, order in [(5, 2), (9, 2), (7, 4)]:
            c = savgol_coefficients(m, order)
            assert np.max(np.abs(c - c[::-1])) <= 1e-12
            assert abs(c.sum() - 1.0) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="odd"):
            savgol_coefficients(4, 2)
        with pytest.raises(ValueError):
            savgol_coefficients(3, 3)
        with pytest.raises(ValueError):
            savgol_coefficients(5, -1)

    def test_spec_validates_on_construction(self):
        with pytest.raises(ValueError):
            SavgolSpec(m=6, order=2)
        assert SavgolSpec().m == 5 and SavgolSpec().order == 2


class TestSmoothSeries:
    def test_constant_is_fixed_point(self):
        series = np.full((12, 3), 7.25)
        out = smooth_series(series, SavgolSpec())
        assert np.max(np.abs(out - series)) <= 1e-12

    def test_linear_is_fixed_point(self):
        """A degree-2 fit reproduces any polynomial of degree <= 2 exactly."""
        t = np.arange(20, dtype=np.float64)
        series = np.stack([3.0 * t - 5.0, -0.5 * t + 2.0, 0.25 * t * t - t], axis=1)
        out = smooth_series(series, SavgolSpec())
        assert np.max(np.abs(out - series)) <= 1e-9

    def test_boundary_rows_pass_through(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=(15, 4))
        out = smooth_series(series, SavgolSpec(m=5, order=2))
        assert np.array_equal(out[:2], series[:2])
        assert np.array_equal(out[-2:], series[-2:])
        assert not np.array_equal(out[2:-2], series[2:-2])

    def test_short_series_untouched(self):
        rng = np.random.default_rng(1)
        series = rng.normal(size=(4, 2))
        out = smooth_series(series, SavgolSpec(m=5, order=2))
        assert np.array_equal(out, series)

    def test_interior_matches_scipy(self):
        rng = np.random.default_rng(2)
        series = rng.normal(size=(30, 5))
        ours = smooth_series(series, SavgolSpec(m=5, order=2))
        theirs = scipy.signal.savgol_filter(series, 5, 2, axis=0)
        assert np.max(np.abs(ours[2:-2] - theirs[2:-2])) <= 1e-12

    def test_input_not_mutated(self):
        rng = np.random.default_rng(3)
        series = rng.normal(size=(10, 2))
        before = series.copy()
        smooth_series(series, SavgolSpec())
        assert np.array_equal(series, before)


class TestSavgolSmooth:
    def test_smooths_coords_keeps_confidence(self):
        """Smoothing in the chain moves coordinates only: confidence columns
        pass through untouched."""
        rng = np.random.default_rng(4)
        conf = rng.random((10, N_JOINTS))
        seq = _make_sequence(rng.normal(size=(10, N_JOINTS, 2)), confidence=conf)
        (out,) = preprocess_sequence(
            seq, NormMethod.M1, WindowSpec(10), DEFAULT_JOINT_MAP, SavgolSpec(),
            include_confidence=True,
        )
        expected = smooth_series(seq.coords, SavgolSpec())
        assert np.max(np.abs(out[:, :28] - _m1_of(expected))) <= 1e-12
        assert not np.array_equal(out[:, :28], _m1_of(seq.coords))
        assert np.array_equal(out[:, 28:], conf)


class TestWindows:
    @pytest.mark.parametrize(
        "t,w,stride,expected",
        [(10, 4, 1, 7), (10, 10, 1, 1), (10, 4, 3, 3), (11, 4, 3, 3), (12, 4, 3, 3)],
    )
    def test_count_closed_form(self, t, w, stride, expected):
        rng = np.random.default_rng(5)
        seq = _random_sequence(rng, t)
        windows = _raw_windows(seq, WindowSpec(w, stride))
        assert windows.shape == (expected, w, 42)
        assert expected == (t - w) // stride + 1

    def test_window_contents_and_starts(self):
        rng = np.random.default_rng(6)
        seq = _random_sequence(rng, 8)
        windows = _raw_windows(seq, WindowSpec(3))
        assert len(windows) == 6
        for start, window in enumerate(windows):
            coords = seq.coords[start : start + 3]
            assert np.array_equal(window[:, :28], _m1_of(coords))
            assert np.array_equal(window[:, 28:], seq.conf[start : start + 3])

    def test_short_sequence_padded_in_front(self):
        rng = np.random.default_rng(7)
        seq = _random_sequence(rng, 3)
        (window,) = _raw_windows(seq, WindowSpec(8))
        assert np.array_equal(window[:5], np.zeros((5, 42)))
        assert np.array_equal(window[5:, :28], _m1_of(seq.coords))
        assert np.array_equal(window[5:, 28:], seq.conf)

    def test_windows_are_copies(self):
        rng = np.random.default_rng(8)
        seq = _random_sequence(rng, 6)
        before = seq.coords.copy()
        windows = _raw_windows(seq, WindowSpec(4))
        windows[0, 0, 0] = 1e9
        assert np.array_equal(seq.coords, before)
        assert not np.shares_memory(windows, seq.coords)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(0)
        with pytest.raises(ValueError):
            WindowSpec(4, stride=0)


class TestToPolar:
    """Polar form of a joint around the chin: the M3 block of a window."""

    def _polar(self, point, ref):
        coords = np.zeros((1, N_JOINTS, 2))
        coords[0, :] = ref
        coords[0, 0] = point
        features = _features(coords, NormMethod.M3)
        return features[0, 0], features[0, 1]

    def test_quadrants(self):
        ref = (1.0, 1.0)
        cases = [
            ((4.0, 5.0), 5.0, math.atan2(4.0, 3.0)),
            ((-2.0, 5.0), 5.0, math.atan2(4.0, -3.0)),
            ((-2.0, -3.0), 5.0, math.atan2(-4.0, -3.0)),
            ((4.0, -3.0), 5.0, math.atan2(-4.0, 3.0)),
            ((1.0, 6.0), 5.0, math.pi / 2),
            ((-4.0, 1.0), 5.0, math.pi),
        ]
        for point, dist, angle in cases:
            e, a = self._polar(point, ref)
            assert abs(e - dist) <= 1e-12
            assert abs(a - angle) <= 1e-12

    def test_coincident_point_is_origin(self):
        p = (3.5, -2.0)
        assert self._polar(p, p) == (0.0, 0.0)

    def test_matches_hypot_atan2_randomly(self):
        """numpy's hypot/arctan2 agree with libm's to within an ulp or two."""
        rng = np.random.default_rng(9)
        for _ in range(50):
            px, py, rx, ry = rng.normal(size=4) * 100
            e, a = self._polar((px, py), (rx, ry))
            assert math.isclose(e, math.hypot(px - rx, py - ry), rel_tol=1e-14)
            assert math.isclose(a, math.atan2(py - ry, px - rx), rel_tol=1e-14)


class TestFeatureDim:
    @pytest.mark.parametrize(
        "method,expected",
        [
            (NormMethod.M1, 28),
            (NormMethod.M2, 28),
            (NormMethod.M3, 28),
            (NormMethod.M4, 56),
            (NormMethod.M5, 56),
        ],
    )
    def test_base_dims(self, method, expected):
        assert feature_dim(method) == expected
        assert feature_dim(method, include_confidence=True) == expected + 14


class TestNormalizeWindow:
    def _hand_window(self):
        """One real frame with easy numbers; chin (joint 1) at (10, 20)."""
        coords = np.zeros((1, N_JOINTS, 2))
        coords[0, 0] = (13.0, 24.0)  # dx=3, dy=4 -> dist 5
        coords[0, 1] = (10.0, 20.0)  # the chin itself
        coords[0, 2] = (10.0, 15.0)  # dx=0, dy=-5
        for j in range(3, N_JOINTS):
            coords[0, j] = (10.0 + j, 20.0 - j)
        return coords

    def test_method1_hand_case(self):
        out = _features(self._hand_window(), NormMethod.M1)
        assert out.shape == (1, 28)
        assert out[0, 0] == 3.0 and out[0, 1] == 4.0
        assert out[0, 2] == 0.0 and out[0, 3] == 0.0  # the chin itself
        assert out[0, 4] == 0.0 and out[0, 5] == -5.0
        assert out[0, 6] == 3.0 and out[0, 7] == -3.0  # joint 3

    def test_method2_hand_case(self):
        out = _features(self._hand_window(), NormMethod.M2)
        assert abs(out[0, 0] - 0.3) <= 1e-15  # 3/10
        assert abs(out[0, 1] - 0.2) <= 1e-15  # 4/20
        assert out[0, 4] == 0.0
        assert abs(out[0, 5] - (-0.25)) <= 1e-15  # -5/20

    def test_method3_hand_case(self):
        out = _features(self._hand_window(), NormMethod.M3)
        assert abs(out[0, 0] - 5.0) <= 1e-12
        assert abs(out[0, 1] - math.atan2(4.0, 3.0)) <= 1e-12
        assert out[0, 2] == 0.0 and out[0, 3] == 0.0  # chin: dist 0, angle 0
        assert abs(out[0, 4] - 5.0) <= 1e-12
        assert abs(out[0, 5] - (-math.pi / 2)) <= 1e-12

    def test_method3_matches_per_joint_recompute(self):
        rng = np.random.default_rng(10)
        coords = rng.normal(size=(4, N_JOINTS, 2)) * 30 + 100
        out = _features(coords, NormMethod.M3)
        rx, ry = coords[0, CHIN]
        for t in range(4):
            for j in range(N_JOINTS):
                px, py = coords[t, j]
                e = math.hypot(px - rx, py - ry)
                a = 0.0 if e == 0.0 else math.atan2(py - ry, px - rx)
                assert abs(out[t, 2 * j] - e) <= 1e-12
                assert abs(out[t, 2 * j + 1] - a) <= 1e-12

    def test_batch_matches_single_windows(self):
        """Normalizing a stack of windows equals normalizing each alone, each
        against the chin of its own first frame."""
        rng = np.random.default_rng(23)
        coords = rng.normal(size=(5, 4, N_JOINTS, 2)) * 30 + 100
        conf = rng.random((5, 4, N_JOINTS))
        for method in NormMethod:
            batch = normalize_window(coords, method, DEFAULT_JOINT_MAP, conf)
            for i in range(5):
                alone = _features(coords[i], method, confidence=conf[i])
                assert np.array_equal(batch[i], alone)

    def test_method4_is_m1_beside_m3(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(5, N_JOINTS, 2)) * 40 + 150
        m1 = _features(raw, NormMethod.M1)
        m3 = _features(raw, NormMethod.M3)
        m4 = _features(raw, NormMethod.M4)
        assert np.array_equal(m4, np.concatenate([m1, m3], axis=1))

    def test_method5_is_m2_beside_m3(self):
        rng = np.random.default_rng(12)
        raw = rng.normal(size=(5, N_JOINTS, 2)) * 40 + 150
        m2 = _features(raw, NormMethod.M2)
        m3 = _features(raw, NormMethod.M3)
        m5 = _features(raw, NormMethod.M5)
        assert np.array_equal(m5, np.concatenate([m2, m3], axis=1))

    def test_degenerate_chin_for_ratio_methods(self):
        coords = np.full((2, N_JOINTS, 2), 5.0)
        coords[0, DEFAULT_JOINT_MAP.chin_index] = (0.0, 20.0)
        for method in (NormMethod.M2, NormMethod.M5):
            with pytest.raises(DegenerateReferenceError, match=r"\(0\.0, 20\.0\)"):
                _features(coords, method)
        # the Cartesian and polar methods do not care
        _features(coords, NormMethod.M1)
        _features(coords, NormMethod.M3)
        # in a stack, one degenerate window is enough to refuse
        stack = np.stack([coords + 1.0, coords])
        with pytest.raises(DegenerateReferenceError):
            normalize_window(stack, NormMethod.M2, DEFAULT_JOINT_MAP)

    def test_padded_rows_stay_zero_and_chin_skips_padding(self):
        rng = np.random.default_rng(13)
        coords = np.zeros((6, N_JOINTS, 2))
        coords[2:] = rng.normal(size=(4, N_JOINTS, 2)) * 30 + 100
        out = _features(coords, NormMethod.M1, pad=2)
        assert np.array_equal(out[:2], np.zeros((2, 28)))
        # reference chin comes from row 2, the first real frame
        chin = coords[2, DEFAULT_JOINT_MAP.chin_index]
        assert out[2, 0] == coords[2, 0, 0] - chin[0]
        assert out[2, 1] == coords[2, 0, 1] - chin[1]

    def test_fully_padded_window_rejected(self):
        with pytest.raises(ValueError, match="non-padded"):
            _features(np.zeros((3, N_JOINTS, 2)), NormMethod.M1, pad=3)

    def test_confidence_columns_appended(self):
        rng = np.random.default_rng(14)
        conf = rng.random((3, N_JOINTS))
        raw = rng.normal(size=(3, N_JOINTS, 2)) + 50
        out = _features(raw, NormMethod.M1, confidence=conf)
        assert out.shape == (3, 42)
        assert np.array_equal(out[:, 28:], conf)

    def test_custom_chin_index_respected(self):
        rng = np.random.default_rng(15)
        coords = rng.normal(size=(2, N_JOINTS, 2)) * 30 + 100
        other_map = JointIndexMap(chin_index=5)
        out = _features(coords, NormMethod.M1, other_map)
        chin = coords[0, 5]
        assert out[0, 10] == 0.0 and out[0, 11] == 0.0
        assert out[0, 0] == coords[0, 0, 0] - chin[0]


class TestInvariances:
    @pytest.mark.parametrize("method", [NormMethod.M1, NormMethod.M3, NormMethod.M4])
    def test_translation_invariance(self, method):
        """Moving the whole skeleton (camera shift) leaves chin-relative
        features untouched for the subtraction-based methods."""
        rng = np.random.default_rng(16)
        coords = rng.normal(size=(5, N_JOINTS, 2)) * 30 + 200
        shifted = coords + np.array([37.5, -12.25])
        a = _features(coords, method)
        b = _features(shifted, method)
        assert np.max(np.abs(a - b)) <= 1e-9

    def test_ratio_method_not_translation_invariant(self):
        rng = np.random.default_rng(17)
        coords = rng.normal(size=(3, N_JOINTS, 2)) * 30 + 200
        shifted = coords + np.array([40.0, 40.0])
        a = _features(coords, NormMethod.M2)
        b = _features(shifted, NormMethod.M2)
        assert np.max(np.abs(a - b)) > 1e-6

    def test_rotation_preserves_distances(self):
        """Rotating the skeleton about any point keeps every chin distance."""
        rng = np.random.default_rng(18)
        coords = rng.normal(size=(4, N_JOINTS, 2)) * 30 + 200
        theta = 0.7
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        rotated = coords @ rot.T
        a = _features(coords, NormMethod.M3)
        b = _features(rotated, NormMethod.M3)
        assert np.max(np.abs(a[:, 0::2] - b[:, 0::2])) <= 1e-9

    def test_uniform_scale_scales_distances(self):
        rng = np.random.default_rng(19)
        coords = rng.normal(size=(3, N_JOINTS, 2)) * 30 + 200
        a = _features(coords, NormMethod.M3)
        b = _features(coords * 2.0, NormMethod.M3)
        assert np.max(np.abs(b[:, 0::2] - 2.0 * a[:, 0::2])) <= 1e-9
        assert np.max(np.abs(b[:, 1::2] - a[:, 1::2])) <= 1e-12


class TestPreprocessSequence:
    def test_chain_equals_manual_composition(self):
        rng = np.random.default_rng(20)
        seq = _random_sequence(rng, 12)
        spec = WindowSpec(5)
        sg = SavgolSpec()
        got = preprocess_sequence(seq, NormMethod.M4, spec, DEFAULT_JOINT_MAP, sg)
        smoothed = smooth_series(seq.coords, sg)
        manual = [
            _features(smoothed[start : start + 5], NormMethod.M4) for start in range(8)
        ]
        assert got.shape == (8, 5, 56) and got.dtype == np.float64
        for g, m in zip(got, manual):
            assert np.array_equal(g, m)

    def test_smoothing_can_be_disabled(self):
        rng = np.random.default_rng(21)
        seq = _random_sequence(rng, 10)
        with_sg = preprocess_sequence(
            seq, NormMethod.M1, WindowSpec(6), DEFAULT_JOINT_MAP
        )
        without = preprocess_sequence(
            seq, NormMethod.M1, WindowSpec(6), DEFAULT_JOINT_MAP, savgol_spec=None
        )
        manual = [_m1_of(seq.coords[start : start + 6]) for start in range(5)]
        assert not np.array_equal(with_sg, without)
        for a, b in zip(without, manual):
            assert np.array_equal(a, b)

    def test_short_sequence_single_padded_window(self):
        rng = np.random.default_rng(22)
        seq = _random_sequence(rng, 3)
        (only,) = preprocess_sequence(seq, NormMethod.M3, WindowSpec(9), DEFAULT_JOINT_MAP)
        assert only.shape == (9, 28)
        assert np.array_equal(only[:6], np.zeros((6, 28)))
        assert only[6:].any()
