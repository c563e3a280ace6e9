import json
import logging
import os
import re

import mpmath
import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from emdscalp import cli, signal
from emdscalp.signal import (
    Annotation,
    Recording,
    bandpass,
    epoch_trials,
    read_recording,
    read_recording_csv,
    split,
)

from helpers import make_motor_recording, recording_to_edf, write_edf

FS = 160.0


def tone(freq, seconds=10.0, fs=FS, amp=1.0):
    t = np.arange(int(seconds * fs)) / fs
    return amp * np.sin(2 * np.pi * freq * t)


class TestEDFReader:
    def test_round_trip_identical_samples(self, tmp_path, rng):
        data = np.round(rng.normal(scale=500, size=(2, int(5 * FS))))
        path = write_edf(tmp_path / "a.edf", data, FS,
                         annotations=[(1.0, 4.0, "T1")])
        rec = read_recording(path)
        assert rec.sample_rate == FS
        assert rec.channel_names == ["EEG ch0", "EEG ch1"]
        assert np.array_equal(rec.data, data)

    def test_annotations_decoded_in_samples(self, tmp_path, rng):
        data = np.zeros((1, int(8 * FS)))
        path = write_edf(tmp_path / "a.edf", data, FS,
                         annotations=[(0.5, 4.0, "T1"), (5.0, 2.0, "T0")])
        rec = read_recording(path)
        assert rec.annotations == [
            Annotation(int(0.5 * FS), int(4.0 * FS), "T1"),
            Annotation(int(5.0 * FS), int(2.0 * FS), "T0"),
        ]

    def test_zero_channel_header_rejected(self, tmp_path, rng):
        data = np.zeros((1, int(FS)))
        path = write_edf(tmp_path / "a.edf", data, FS)
        raw = bytearray(path.read_bytes())
        raw[252:256] = b"0   "
        bad = tmp_path / "zero.edf"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="malformed header"):
            read_recording(bad)

    def test_truncated_records_rejected(self, tmp_path):
        data = np.zeros((1, int(4 * FS)))
        path = write_edf(tmp_path / "a.edf", data, FS)
        raw = path.read_bytes()
        bad = tmp_path / "short.edf"
        bad.write_bytes(raw[:-100])
        with pytest.raises(ValueError, match="truncated data records"):
            read_recording(bad)

    def test_bytes_past_the_counted_records_rejected(self, tmp_path):
        # a halved record count must not read as the first half of the run
        path = write_edf(tmp_path / "a.edf", np.zeros((1, int(4 * FS))), FS)
        raw = bytearray(path.read_bytes())
        raw[236:244] = b"2       "
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="^[0-9]+ bytes past the 2 data records the "
                                             "header counts$"):
            read_recording(path)
        raw[236:244] = b"-1      "  # unknown count: every whole record is read
        path.write_bytes(bytes(raw))
        assert read_recording(path).n_samples == int(4 * FS)

    def test_header_size_field_must_match_signal_count(self, tmp_path):
        path = write_edf(tmp_path / "a.edf", np.zeros((1, int(FS))), FS)
        raw = bytearray(path.read_bytes())
        assert raw[184:192] == b"768     "  # 256 + 2 signals x 256
        raw[184:192] = b"512     "
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="^malformed header: header size field "
                                             "b'512     ' is not 768 for 2 signals$"):
            read_recording(path)

    def test_short_file_rejected(self, tmp_path):
        bad = tmp_path / "tiny.edf"
        bad.write_bytes(b"0       ")
        with pytest.raises(ValueError, match="malformed header"):
            read_recording(bad)

    def test_garbled_annotation_rejected(self, tmp_path):
        data = np.zeros((1, int(FS)))
        path = write_edf(tmp_path / "a.edf", data, FS)
        raw = bytearray(path.read_bytes())
        # overwrite the annotation payload with text lacking TAL separators
        raw[-8:] = b"garbage\x00"
        bad = tmp_path / "bad.edf"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="annotation"):
            read_recording(bad)

    def test_physionet_style_labels_stripped(self, tmp_path):
        data = np.zeros((2, int(FS)))
        path = write_edf(tmp_path / "a.edf", data, FS, labels=["Fc5.", "C3.."])
        rec = read_recording(path)
        assert rec.channel_names == ["Fc5", "C3"]


# Header fields as (offset, width): the fixed header, then each per-signal
# block as (block offset, width) for a file with FUZZ_NS signals.
FUZZ_NS = 3
_MAIN_FIELDS = [(0, 8), (168, 8), (176, 8), (184, 8), (236, 8), (244, 8), (252, 4)]
_SIGNAL_BLOCKS = [(0, 16), (96, 8), (104, 8), (112, 8), (120, 8), (128, 8), (216, 8)]
FUZZ_FIELDS = _MAIN_FIELDS + [
    (256 + block * FUZZ_NS + width * i, width)
    for block, width in _SIGNAL_BLOCKS for i in range(FUZZ_NS)
]
# numeric edge cases the header and TAL parsers must reject or survive
FUZZ_TOKENS = ["", "-1", "0", "+1", "-0", "nan", "inf", "-inf", "1e308", "1e-320",
               "1e999", "99999999", "-9999999", "1_0", "0x10", " 3 ", "\x00",
               "\x14", "\x15", "+1\x15nan\x14"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("edf_fuzz")
    data = np.round(np.random.default_rng(5).normal(scale=300, size=(FUZZ_NS - 1, 48)))
    write_edf(root / "base.edf", data, 16.0,
              annotations=[(0.5, 1.0, "T1"), (1.5, 1.0, "T2")])
    return root


class TestEDFFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_or_truncated_file_parses_or_raises_value_error(self, fuzz_dir, data):
        raw = bytearray((fuzz_dir / "base.edf").read_bytes())
        header_bytes = 256 + 256 * FUZZ_NS
        tal_marks = [i for i in range(header_bytes, len(raw)) if raw[i] in b"+\x14\x15"]
        token = st.one_of(st.sampled_from(FUZZ_TOKENS),
                          st.text(st.characters(max_codepoint=255), max_size=8))
        for _ in range(data.draw(st.integers(1, 3), label="n_mutations")):
            kind = data.draw(st.sampled_from(["field", "tal", "bytes", "truncate"]))
            if kind == "field":
                start, width = data.draw(st.sampled_from(FUZZ_FIELDS))
                value = data.draw(token).encode("latin-1")[:width].ljust(width)
                raw[start:start + width] = value
            elif kind == "tal":
                start = data.draw(st.sampled_from(tal_marks))
                value = data.draw(token).encode("latin-1")
                raw[start:start + len(value)] = value
            elif kind == "bytes":
                start = data.draw(st.integers(0, len(raw)))
                value = data.draw(st.binary(min_size=1, max_size=8))
                raw[start:start + len(value)] = value
            else:
                del raw[data.draw(st.integers(0, len(raw))):]
        path = fuzz_dir / "mutated.edf"
        path.write_bytes(bytes(raw))
        try:
            read_recording(path)
        except ValueError:
            pass


class TestCSVReader:
    def test_round_trip(self, tmp_path, rng):
        n = 1000
        data = rng.normal(size=(3, n))
        lines = ["chA,chB,chC"]
        for col in range(n):
            lines.append(",".join(repr(float(v)) for v in data[:, col]))
        p = tmp_path / "rec.csv"
        p.write_text("\n".join(lines) + "\n")
        a = tmp_path / "rec_annotations.csv"
        a.write_text("onset,duration,code\n160,640,T1\n")
        rec = read_recording_csv(p, a, sample_rate=FS)
        assert rec.channel_names == ["chA", "chB", "chC"]
        assert_allclose(rec.data, data)
        assert rec.annotations == [Annotation(160, 640, "T1")]

    def test_data_file_without_header_rejected(self, tmp_path):
        p = tmp_path / "rec.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="no header row"):
            read_recording_csv(p)

    def test_bad_data_row_names_its_line(self, tmp_path):
        p = tmp_path / "rec.csv"
        for row in ("3", "1.0,abc"):
            p.write_text(f"C3,C4\n1.0,2.0\n{row}\n4.0,5.0\n")
            expected = f"{p} line 3: expected 2 numbers, got {row.split(',')}"
            with pytest.raises(ValueError, match=re.escape(expected)):
                read_recording_csv(p)

    def test_short_annotation_row_rejected(self, tmp_path):
        p = tmp_path / "rec.csv"
        p.write_text("chA\n" + "0.5\n" * 800)
        a = tmp_path / "rec_annotations.csv"
        a.write_text("onset,duration,code\n160,640,T1\n480,640\n")
        expected = f"{a} line 3: expected onset,duration,code"
        with pytest.raises(ValueError, match=re.escape(expected)):
            read_recording_csv(p, a)


class TestBandpass:
    def test_in_band_tone_preserved(self):
        x = tone(20.0)
        rec = Recording(["a"], FS, x[None, :])
        y = bandpass(rec).data[0]
        mid = slice(len(x) // 4, 3 * len(x) // 4)
        amp = np.sqrt(2 * np.mean(y[mid] ** 2))
        assert abs(amp - 1.0) < 0.05

    def test_out_of_band_tone_attenuated(self):
        x = tone(2.0)
        rec = Recording(["a"], FS, x[None, :])
        y = bandpass(rec).data[0]
        mid = slice(len(x) // 4, 3 * len(x) // 4)
        amp = np.sqrt(2 * np.mean(y[mid] ** 2))
        assert 20 * np.log10(amp) <= -20.0

    def test_dc_removed(self):
        rec = Recording(["a"], FS, np.full((1, int(6 * FS)), 7.5))
        y = bandpass(rec).data[0]
        assert abs(y.mean()) < 1e-6

    def test_linearity(self, rng):
        x = rng.normal(size=(1, int(4 * FS)))
        y = rng.normal(size=(1, int(4 * FS)))
        a, b = 2.5, -1.25
        rec = lambda d: Recording(["a"], FS, d)
        combined = bandpass(rec(a * x + b * y)).data
        separate = a * bandpass(rec(x)).data + b * bandpass(rec(y)).data
        assert_allclose(combined, separate, rtol=1e-9, atol=1e-12)

    def test_shape_and_annotations_preserved(self, rng):
        ann = [Annotation(10, 20, "T1")]
        rec = Recording(["a", "b"], FS, rng.normal(size=(2, 400)), ann)
        out = bandpass(rec)
        assert out.data.shape == rec.data.shape
        assert out.annotations == ann

    def test_invalid_edges(self):
        rec = Recording(["a"], FS, np.zeros((1, 100)))
        with pytest.raises(ValueError, match="band edges"):
            bandpass(rec, 30.0, 8.0)
        with pytest.raises(ValueError, match="band edges"):
            bandpass(rec, 8.0, 90.0)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(fs=st.floats(1.0, 5000.0),
           edges=st.lists(st.floats(0.001, 0.999), min_size=2, max_size=2, unique=True))
    def test_coefficients_equal_scipy_butter(self, fs, edges):
        nyq = fs / 2.0
        lo, hi = sorted(e * nyq for e in edges)
        assert 0.0 < lo < hi < nyq
        b, a = signal._butter_bandpass(lo / nyq, hi / nyq)
        expected = scipy.signal.butter(4, [lo / nyq, hi / nyq], btype="bandpass")
        assert (b.tobytes(), a.tobytes()) == tuple(c.tobytes() for c in expected)

    @pytest.mark.parametrize("n_channels", [1, 64])
    @pytest.mark.parametrize("n_samples", [28, 63, 64, 65, 129, 12054])
    def test_agrees_with_scipy_filtfilt(self, rng, n_channels, n_samples):
        # white noise on a DC offset, as in a raw EEG channel
        x = rng.normal(scale=50.0, size=(n_channels, n_samples)) \
            + rng.normal(scale=300.0, size=(n_channels, 1))
        y = bandpass(Recording([f"c{i}" for i in range(n_channels)], FS, x), 8.0, 30.0).data
        b, a = scipy.signal.butter(4, [8.0 / 80.0, 30.0 / 80.0], btype="bandpass")
        expected = scipy.signal.filtfilt(b, a, x, axis=1)
        assert np.abs(y - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_error_no_larger_than_scipy_filtfilt(self, rng):
        x = rng.normal(scale=50.0, size=(2, 1600)) + rng.normal(scale=300.0, size=(2, 1))
        b, a = signal._butter_bandpass(8.0 / 80.0, 30.0 / 80.0)
        exact = np.array([mp_filtfilt(b, a, row) for row in x])
        ours = bandpass(Recording(["a", "b"], FS, x)).data
        theirs = scipy.signal.filtfilt(b, a, x, axis=1)
        rms = lambda y: np.sqrt(np.mean((y - exact) ** 2))
        assert rms(ours) <= rms(theirs)
        assert np.abs(ours - exact).max() <= 1e-12 * np.abs(exact).max()

    @pytest.mark.parametrize("n_samples", [1, 27])
    def test_run_too_short_to_pad_rejected(self, n_samples):
        rec = Recording(["a", "b"], FS, np.ones((2, n_samples)))
        with pytest.raises(ValueError, match=f"{n_samples} samples are too few to filter: "
                                             f"need more than 27"):
            bandpass(rec)

    def test_run_too_short_to_pad_fails_only_its_subject(self, tmp_path, rng, capsys):
        for sid in (1, 2):
            (tmp_path / "data" / f"S{sid:03d}").mkdir(parents=True)
        good = make_motor_recording(rng, ["C3", "C4"], n_trials=8, discriminative=(1,))
        recording_to_edf(tmp_path / "data" / "S001" / "S001R03.edf", good)
        short = tmp_path / "data" / "S002" / "S002R03.edf"
        write_edf(short, np.zeros((2, 16)), FS, labels=["C3", "C4"], record_seconds=0.1)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("version = 1\ndataset_root = data\nsubjects = 1,2\nruns = 3\n"
                       "cache_dir = cache\noutput_dir = out\n")
        assert cli.main(["prepare", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert (list(summary["cached"]), summary["failed_subjects"]) == (["S001"], ["S002"])
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S002"]
        assert reason == (f"ValueError: {short}: ValueError: 16 samples are too few to "
                          "filter: need more than 27")


def mp_filtfilt(b, a, x):
    """``scipy.signal.filtfilt(b, a, x)`` of one channel by its definition:
    odd extension, then the direct-form-II-transposed recurrence forward and
    backward from the scaled step-response steady state, sample by sample in
    40-digit arithmetic on the float64 coefficients."""
    with mpmath.workdps(40):
        b, a, x = ([mpmath.mpf(float(v)) for v in seq] for seq in (b, a, x))
        m, edge = len(a) - 1, 3 * len(a)
        # (I - A) zi = B for A = companion(a).T, B = b[1:] - a[1:] b[0]
        i_minus_a = mpmath.eye(m)
        for i in range(m):
            i_minus_a[i, 0] += a[i + 1]
            if i + 1 < m:
                i_minus_a[i, i + 1] = -1
        zi = mpmath.lu_solve(i_minus_a, mpmath.matrix([b[i + 1] - a[i + 1] * b[0]
                                                       for i in range(m)]))

        def lfilter(seq):
            z, out = [zi[i] * seq[0] for i in range(m)], []
            for v in seq:
                y = b[0] * v + z[0]
                z = [z[i + 1] + b[i + 1] * v - a[i + 1] * y for i in range(m - 1)] \
                    + [b[m] * v - a[m] * y]
                out.append(y)
            return out

        n = len(x)
        ext = ([2 * x[0] - x[i] for i in range(edge, 0, -1)] + x
               + [2 * x[-1] - x[n - 2 - i] for i in range(edge)])
        y = lfilter(lfilter(ext)[::-1])[::-1]
        return [float(v) for v in y[edge:edge + n]]


class TestEpochTrials:
    def test_single_trial_yields_four_left_epochs(self, rng):
        data = rng.normal(size=(3, int(6 * FS)))
        rec = Recording(["a", "b", "c"], FS, data,
                        [Annotation(int(FS), int(4 * FS), "T1")])
        epochs = epoch_trials(rec)
        assert len(epochs) == 4
        assert all(e.label == "Left" for e in epochs)
        assert all(e.data.shape == (3, 160) for e in epochs)

    def test_epoching_is_lossless_over_trial(self, rng):
        data = rng.normal(size=(2, int(6 * FS)))
        onset = int(FS)
        rec = Recording(["a", "b"], FS, data, [Annotation(onset, int(4 * FS), "T1")])
        epochs = epoch_trials(rec)
        stitched = np.concatenate([e.data for e in epochs], axis=1)
        assert np.array_equal(stitched, data[:, onset:onset + 640])

    def test_rest_only_recording_gives_nothing(self):
        rec = Recording(["a"], FS, np.zeros((1, int(10 * FS))),
                        [Annotation(0, int(4 * FS), "T0")])
        assert epoch_trials(rec) == []

    def test_93_trials_give_372_epochs(self, rng):
        rec = make_motor_recording(rng, ["a", "b"], n_trials=93)
        epochs = epoch_trials(rec)
        assert len(epochs) == 372

    def test_truncated_trial_skipped_with_count(self, caplog, rng):
        data = rng.normal(size=(1, int(5 * FS)))
        anns = [
            Annotation(0, int(4 * FS), "T1"),
            Annotation(int(2 * FS), int(4 * FS), "T2"),  # runs past the end
        ]
        rec = Recording(["a"], FS, data, anns)
        with caplog.at_level(logging.WARNING, logger="emdscalp.signal"):
            epochs = epoch_trials(rec)
        assert len(epochs) == 4
        assert "skipped 1 truncated trial" in caplog.text


class TestSplit:
    @staticmethod
    def _labels(n_left, n_right):
        return ["Left"] * n_left + ["Right"] * n_right

    def test_sizes_80_20(self):
        train, test = split(self._labels(50, 50), 1, 0.2)
        assert len(train) == 80
        assert len(test) == 20

    def test_total_matches_round_with_unequal_classes(self):
        labels = self._labels(56 * 4, 37 * 4)
        train, test = split(labels, 3, 0.2)
        assert len(test) == round(0.2 * len(labels))

    def test_same_seed_same_split(self):
        labels = self._labels(30, 20)
        assert split(labels, 99, 0.25) == split(labels, 99, 0.25)

    def test_different_seed_differs(self):
        labels = self._labels(40, 40)
        assert split(labels, 1)[1] != split(labels, 2)[1]

    def test_partition(self):
        train, test = split(self._labels(23, 17), 5, 0.3)
        assert sorted(train + test) == list(range(40))
        assert train == sorted(train) and test == sorted(test)

    def test_stratified_both_sides(self):
        labels = self._labels(8, 40)
        train, test = split(labels, 7, 0.1)
        for part in (train, test):
            assert {labels[i] for i in part} == {"Left", "Right"}

    def test_too_few_epochs_rejected(self):
        with pytest.raises(ValueError, match="fewer than 2"):
            split(self._labels(1, 5), 0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="test_fraction"):
            split(self._labels(5, 5), 0, 1.5)


PHYSIONET_ROOT = os.environ.get("EMDSCALP_PHYSIONET", "")


@pytest.mark.skipif(
    not PHYSIONET_ROOT, reason="real dataset not present (set EMDSCALP_PHYSIONET)"
)
def test_real_subject_file_shape():
    path = f"{PHYSIONET_ROOT}/S007/S007R03.edf"
    rec = read_recording(path)
    assert len(rec.channel_names) == 64
    assert rec.sample_rate == 160.0
    assert {a.code for a in rec.annotations} <= {"T0", "T1", "T2"}


class TestEDFMotorPipeline:
    def test_synthetic_subject_through_edf(self, tmp_path, rng):
        rec = make_motor_recording(rng, ["Fc5.", "C3..", "C4..", "Cz.."],
                                   n_trials=10, discriminative=(1,))
        path = recording_to_edf(tmp_path / "s.edf", rec)
        back = read_recording(path)
        assert back.channel_names == ["Fc5", "C3", "C4", "Cz"]
        filtered = bandpass(back)
        epochs = epoch_trials(filtered)
        assert len(epochs) == 40
        labels = {e.label for e in epochs}
        assert labels == {"Left", "Right"}
