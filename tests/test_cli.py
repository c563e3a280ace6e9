import contextlib
import csv
import io
import json
import os
import pickle
import re
import shutil
import subprocess
import sys
import threading
import weakref
from dataclasses import fields, replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from emdscalp import cli, montage, relevance, signal, spdgeom, stats, transport
from emdscalp.cli import load_config, main, render_map_svg

from helpers import make_motor_recording, rand_spd, recording_to_edf

CHANNELS_6 = ["Fc5.", "C3..", "C4..", "Cz..", "Fp1.", "Oz.."]


def build_dataset(root: Path, subjects, runs, channel_names, rng,
                  n_trials=12, discriminative=(1, 2)):
    for sid in subjects:
        for run in runs:
            rec = make_motor_recording(
                rng, channel_names, n_trials=n_trials,
                discriminative=discriminative,
            )
            tag = f"S{sid:03d}"
            path = root / tag / f"{tag}R{run:02d}.edf"
            path.parent.mkdir(parents=True, exist_ok=True)
            recording_to_edf(path, rec)


def write_config(path: Path, **overrides) -> Path:
    defaults = {
        "version": 1,
        "dataset_root": "data",
        "subjects": "1,2",
        "runs": "3,4",
        "channel_config": "all64",
        "seed": 7,
        "test_fraction": 0.25,
        "shrinkage": 0.05,
        "target_k": 3,
        "cache_dir": "cache",
        "output_dir": "out",
    }
    defaults.update(overrides)
    lines = [f"{k} = {v}" for k, v in defaults.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_csv_run(run: Path, rec: signal.Recording) -> None:
    """`rec` as a CSV run file plus its annotation sidecar."""
    run.parent.mkdir(parents=True, exist_ok=True)
    with open(run, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([rec.channel_names, *rec.data.T.tolist()])
    with open(run.with_name(run.stem + "_annotations.csv"), "w",
              encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows((a.onset, a.duration, a.code) for a in rec.annotations)


@pytest.fixture
def workspace(tmp_path, rng):
    build_dataset(tmp_path / "data", [1, 2], [3, 4], CHANNELS_6, rng)
    cfg = write_config(tmp_path / "exp.cfg")
    return tmp_path, cfg


class TestConfig:
    def test_file_values_and_types(self, tmp_path):
        cfg_path = write_config(tmp_path / "a.cfg", subjects="7,12", seed=99)
        cfg = load_config(cfg_path)
        assert cfg.subjects == (7, 12)
        assert cfg.seed == 99
        assert cfg.dataset_root == str(tmp_path / "data")

    def test_flag_overrides_file(self, tmp_path):
        cfg_path = write_config(tmp_path / "a.cfg", seed=99)
        cfg = load_config(cfg_path, {"seed": 123, "metric": None})
        assert cfg.seed == 123
        assert cfg.metric == "euclidean"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("version = 1\nbogus_key = 3\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(p)

    def test_unsupported_version_rejected(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("version = 2\n")
        with pytest.raises(ValueError, match="version"):
            load_config(p)

    @pytest.mark.parametrize("line, reason", [
        ("seed = 2", "duplicate key 'seed'"), ("seed 2", "expected key = value, got 'seed 2'")],
        ids=["duplicate key", "no equals sign"])
    def test_bad_line_rejected_naming_it(self, tmp_path, line, reason):
        p = tmp_path / "a.cfg"
        p.write_text(f"seed = 1\n{line}\n")
        message = f"{p}: ValueError: config line 2: {reason}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(p)

    def test_feat21_external_requires_pattern(self, tmp_path):
        p = write_config(tmp_path / "a.cfg", channel_config="feat21",
                         relevance_source="external:xnet")
        with pytest.raises(ValueError, match="relevance_pattern"):
            load_config(p)

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("# a comment\n\nversion = 1\nseed = 5  # trailing\n")
        assert load_config(p).seed == 5

    def test_nine_configuration_matrix_from_config_alone(self, tmp_path):
        # 3 channel configs x 3 relevance sources, no code changes
        for channel_config in ("all64", "mi21", "feat21"):
            for source in ("riemannian", "external:conformer", "external:eegnet"):
                p = write_config(
                    tmp_path / f"{channel_config}_{source.replace(':', '_')}.cfg",
                    channel_config=channel_config,
                    relevance_source=source,
                    relevance_pattern="rel_{subject}.json",
                )
                cfg = load_config(p)
                assert cfg.channel_config == channel_config
                assert cfg.relevance_source == source

    def test_relative_pattern_in_a_directory_with_braces(self, tmp_path):
        # the joined directory is escaped, so only {subject} is a field
        base = (tmp_path / "{proj}").resolve()
        base.mkdir()
        cfg = load_config(write_config(base / "ext.cfg",
                                       relevance_pattern="rel_{subject:03d}.json"))
        assert cfg.relevance_pattern.format(subject=1) == str(base / "rel_001.json")
        assert cfg.dataset_root == str(base / "data")

    @pytest.mark.parametrize("edit, key", [
        ({"test_fraction": "nan"}, "test_fraction"),
        ({"test_fraction": 1.5}, "test_fraction"),
        ({"shrinkage": 2}, "shrinkage"),
        ({"band_lo": 40, "band_hi": 10}, "band_lo"),
        ({"band_hi": "inf"}, "band_lo"),
        ({"target_k": 0}, "target_k"),
        ({"sample_rate": 0}, "sample_rate"),
        ({"subjects": -3}, "subjects"),
        ({"runs": "3,0"}, "runs"),
        ({"seed": -1}, "seed"),
        ({"seed": "1.5"}, "seed"),
        ({"metric": "chebyshev"}, "metric"),
        ({"mass": "weird"}, "mass"),
        ({"input_format": "xls"}, "input_format"),
        ({"class_mode": "zzz"}, "class_mode"),
        ({"relevance_pattern": "rel_{subj}.json"}, "relevance_pattern"),
        ({"relevance_pattern": "rel_{0}.json"}, "relevance_pattern"),
        ({"relevance_pattern": "rel_{.json"}, "relevance_pattern"),
        ({"relevance_source": "gradcam"}, "relevance_source 'gradcam'"),
        ({"input_format": "csv", "sample_rate": 50},
         r"^band_hi must be below Nyquist 25\.0 of csv input at sample_rate 50\.0, got 30\.0$"),
    ])
    def test_bad_value_rejected_naming_its_key(self, tmp_path, edit, key):
        with pytest.raises(ValueError, match=key):
            load_config(write_config(tmp_path / "a.cfg", **edit))

    @pytest.mark.parametrize("key, ids", [("subjects", "1,1,2"), ("runs", "4,4")])
    def test_repeated_id_rejected(self, tmp_path, key, ids):
        with pytest.raises(ValueError, match=rf"^{key} must be distinct ids >= 1, got "):
            load_config(write_config(tmp_path / "a.cfg", **{key: ids}))

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.one_of(
        st.tuples(
            st.sampled_from([f.name for f in fields(cli.ExperimentConfig)] + ["bogus"]),
            st.one_of(
                st.sampled_from(["", "0", "1", "-3", "2", "21", "0.2", "1.5", "40", "nan",
                                 "-inf", "1e999", "1,2", "1,,2", "a,b", "all64", "feat21",
                                 "riemannian", "external:x", "raw", "normalized",
                                 "manhattan", "csv", "per_class_union", "{subject}"]),
                st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)),
        ).map(" = ".join),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
    ), max_size=8))
    def test_config_grammar_fuzz(self, tmp_path_factory, lines):
        # a config file either loads as a valid config or raises ValueError
        path = tmp_path_factory.mktemp("cfg") / "fuzz.cfg"
        path.write_text("\n".join(lines), encoding="utf-8")
        try:
            cfg = load_config(path)
        except ValueError:
            return
        # values that used to fail late, per subject, now fail here
        signal.split(["Left", "Left", "Right", "Right"], cfg.seed, cfg.test_fraction)
        np.random.default_rng(cfg.seed)
        assert 0.0 <= cfg.shrinkage < 1.0 and cfg.target_k >= 1


class TestPrepare:
    def test_synthetic_subject_epoch_count(self, tmp_path, rng):
        # one subject, one 93-trial run: 4 epochs per trial
        build_dataset(tmp_path / "data", [1], [3], ["C3..", "C4.."], rng,
                      n_trials=93, discriminative=(1,))
        cfg = write_config(tmp_path / "exp.cfg", subjects="1", runs="3")
        assert main(["prepare", "--config", str(cfg)]) == 0
        index = json.loads((tmp_path / "cache" / "S001" / "index.json").read_text())
        assert abs(len(index["labels"]) - 372) <= 0.05 * 372

    def test_delta_band_caches_the_covariances_of_sosfiltfilt(self, tmp_path, rng, capsys):
        # paper-length runs: 15 trials, 12160 samples at 160 Hz
        build_dataset(tmp_path / "data", [1, 2], [3], CHANNELS_6, rng, n_trials=15)
        cfg = write_config(tmp_path / "exp.cfg", runs="3", band_lo=0.5, band_hi=4.0)
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["failed_subjects"] == []
        sos = scipy.signal.butter(4, [0.5, 4.0], btype="bandpass", fs=160.0, output="sos")
        for subject in (1, 2):
            rec = signal.read_recording(tmp_path / "data" / f"S00{subject}"
                                        / f"S00{subject}R03.edf")
            filtered = signal.Recording(rec.channel_names, rec.sample_rate,
                                        scipy.signal.sosfiltfilt(sos, rec.data, axis=1),
                                        rec.annotations)
            expected = np.stack([np.cov(e.data) for e in signal.epoch_trials(filtered)[0]])
            covs, _ = cli.read_epoch_cache(tmp_path / "cache", subject)
            assert np.abs(covs - expected).max() <= 1e-9 * np.abs(expected).max()

    def test_one_covariance_call_per_run(self, workspace, monkeypatch):
        tmp_path, cfg = workspace
        calls = []
        covariance = spdgeom.covariance
        monkeypatch.setattr(spdgeom, "covariance",
                            lambda epochs: calls.append(len(epochs)) or covariance(epochs))
        assert main(["prepare", "--config", str(cfg)]) == 0
        n_epochs = [len(json.loads((tmp_path / "cache" / tag / "index.json").read_text())["labels"])
                    for tag in ("S001", "S002")]
        assert len(calls) == 4  # 2 subjects x 2 runs
        assert sum(calls) == sum(n_epochs)

    def test_cache_holds_np_cov_of_each_epoch(self, workspace):
        tmp_path, cfg = workspace
        assert main(["prepare", "--config", str(cfg)]) == 0
        covs, _ = cli.read_epoch_cache(tmp_path / "cache", 1)
        expected = [np.cov(e.data) for run in ("S001R03.edf", "S001R04.edf")
                    for e in signal.epoch_trials(signal.bandpass(
                        signal.read_recording(tmp_path / "data" / "S001" / run)))[0]]
        assert covs.tobytes() == np.stack(expected).tobytes()

    def test_no_run_is_alive_at_the_next_read(self, workspace, monkeypatch):
        tmp_path, cfg = workspace
        arrays, alive = [], []
        read, bandpass = signal.read_recording, signal.bandpass

        def tracked(fn):
            def call(*args):
                rec = fn(*args)
                # the array that owns the samples (bandpass returns a view of its buffer)
                arrays.append(weakref.ref(rec.data if rec.data.base is None else rec.data.base))
                return rec
            return call

        def read_after_check(path):
            alive.append(sum(ref() is not None for ref in arrays))
            return tracked(read)(path)

        monkeypatch.setattr(signal, "read_recording", read_after_check)
        monkeypatch.setattr(signal, "bandpass", tracked(bandpass))
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert alive == [0, 0, 0, 0] and len(arrays) == 8

    def test_rerun_is_byte_identical(self, workspace):
        tmp_path, cfg = workspace
        assert main(["prepare", "--config", str(cfg)]) == 0
        index_path = tmp_path / "cache" / "S001" / "index.json"
        first = index_path.read_bytes()
        first_epochs = (tmp_path / "cache" / "S001" / "epochs.npy").read_bytes()
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert index_path.read_bytes() == first
        assert (tmp_path / "cache" / "S001" / "epochs.npy").read_bytes() == first_epochs

    @pytest.mark.parametrize("command", ["prepare", "train-eval", "select-channels"])
    def test_empty_subject_list_fails(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "exp.cfg", subjects="")
        assert main([command, "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": "config lists no subjects"}

    def test_partial_cohort_warns_but_succeeds(self, tmp_path, rng, capsys):
        build_dataset(tmp_path / "data", [1], [3, 4], ["C3..", "C4.."], rng,
                      discriminative=(1,))
        cfg = write_config(tmp_path / "exp.cfg", subjects="1,2")
        assert main(["prepare", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        warning = json.loads(captured.err.strip().splitlines()[0])
        assert warning["warning"] == "partial cohort"
        assert any("S002" in m for m in warning["missing"])

    @pytest.mark.parametrize("channels, sample_rate", [
        (CHANNELS_6[::-1], 160.0),  # same channels, other order
        (CHANNELS_6[:5], 160.0),    # one channel fewer
        (CHANNELS_6, 128.0),        # other sample rate
    ])
    def test_mismatched_run_fails_only_its_subject(self, workspace, rng, capsys,
                                                   channels, sample_rate):
        tmp_path, cfg = workspace
        rec = make_motor_recording(rng, channels, n_trials=12, sample_rate=sample_rate)
        recording_to_edf(tmp_path / "data" / "S002" / "S002R04.edf", rec)
        assert main(["prepare", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert list(summary["cached"]) == ["S001"]
        assert summary["failed_subjects"] == ["S002"]
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S002"]
        run = tmp_path / "data" / "S002" / "S002R04.edf"
        assert reason.startswith(f"ValueError: {run}: ValueError: has channels ")
        assert not (tmp_path / "cache" / "S002").exists()

    def test_corrupt_edf_fails_only_its_subject(self, workspace, capsys):
        tmp_path, cfg = workspace
        assert main(["prepare", "--config", str(cfg)]) == 0
        run = tmp_path / "data" / "S002" / "S002R03.edf"
        run.write_bytes(run.read_bytes()[:-100])
        capsys.readouterr()
        assert main(["prepare", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["failed_subjects"] == ["S002"]
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S002"]
        assert "truncated data records" in reason
        # the earlier cache is invalidated, so later commands skip S002
        assert not (tmp_path / "cache" / "S002" / "index.json").exists()
        assert main(["train-eval", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["failed_subjects"] == ["S002"]

    def test_non_finite_sample_fails_its_subject(self, tmp_path, rng, capsys):
        for sid in (1, 2):
            rec = make_motor_recording(rng, ["C3", "C4"], n_trials=8, discriminative=(1,))
            if sid == 2:
                rec.data[0, rec.annotations[0].onset + 10] = np.nan
            write_csv_run(tmp_path / "data" / f"S{sid:03d}" / f"S{sid:03d}R03.csv", rec)
        cfg = write_config(tmp_path / "exp.cfg", runs="3", input_format="csv")
        assert main(["prepare", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert (list(summary["cached"]), summary["failed_subjects"]) == (["S001"], ["S002"])
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S002"]
        bad_run = tmp_path / "data" / "S002" / "S002R03.csv"
        assert reason == f"ValueError: {bad_run}: ValueError: holds non-finite samples"
        assert not (tmp_path / "cache" / "S002" / "index.json").exists()

    @pytest.mark.parametrize("gain, cause", [(1e200, "has a non-finite entry"),
                                             (1e-300, "has zero trace")],
                             ids=["squares overflow", "squares underflow"])
    def test_unusable_covariance_fails_its_run(self, tmp_path, capsys, gain, cause):
        # finite samples whose squares overflow or vanish fail the run that
        # holds them, before the subject's cache is written
        caches = []
        for scale in (1.0, gain):
            rng = np.random.default_rng(11)
            for sid in (1, 2):
                rec = make_motor_recording(rng, ["C3", "C4"], n_trials=8, discriminative=(1,))
                write_csv_run(tmp_path / "data" / f"S{sid:03d}" / f"S{sid:03d}R03.csv",
                              replace(rec, data=rec.data * (scale if sid == 2 else 1.0)))
            cfg = write_config(tmp_path / "exp.cfg", runs="3", input_format="csv")
            assert main(["prepare", "--config", str(cfg)]) == 0
            caches.append([(p.name, p.read_bytes())
                           for p in sorted((tmp_path / "cache" / "S001").iterdir())])
        captured = capsys.readouterr()
        summary = json.loads(captured.out.splitlines()[-1])
        assert (list(summary["cached"]), summary["failed_subjects"]) == (["S001"], ["S002"])
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S002"]
        run = tmp_path / "data" / "S002" / "S002R03.csv"
        assert reason == f"ValueError: {run}: ValueError: epoch 0's covariance {cause}"
        assert "RuntimeWarning" not in captured.err
        assert not (tmp_path / "cache" / "S002" / "index.json").exists()
        assert caches[0] == caches[1]

    def test_bad_edf_header_field_names_its_run(self, workspace, capsys):
        tmp_path, cfg = workspace
        run = tmp_path / "data" / "S002" / "S002R03.edf"
        raw = bytearray(run.read_bytes())
        raw[236:244] = b"many    "  # record count
        run.write_bytes(bytes(raw))
        assert main(["prepare", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["failed_subjects"] == ["S002"]
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S002"]
        assert reason.startswith(f"ValueError: {run}: ValueError: malformed header: ")

    def test_discontinuous_edf_fails_only_its_subject(self, workspace, capsys):
        tmp_path, cfg = workspace
        run = tmp_path / "data" / "S002" / "S002R03.edf"
        raw = bytearray(run.read_bytes())
        raw[192:197] = b"EDF+D"
        run.write_bytes(bytes(raw))
        assert main(["prepare", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["failed_subjects"] == ["S002"]
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S002"]
        assert reason == (f"ValueError: {run}: ValueError: EDF+D (discontinuous) "
                          "recordings are not supported")

    def test_edf_with_a_repeated_record_fails_only_its_subject(self, workspace, capsys):
        tmp_path, cfg = workspace
        assert main(["prepare", "--config", str(cfg)]) == 0
        clean = _tree(tmp_path / "cache" / "S001")
        capsys.readouterr()
        run = tmp_path / "data" / "S002" / "S002R03.edf"
        raw = bytearray(run.read_bytes())
        header, n_records = int(raw[184:192]), int(raw[236:244])
        size = (len(raw) - header) // n_records
        raw[header + 3 * size:header + 4 * size] = raw[header + 2 * size:header + 3 * size]
        run.write_bytes(bytes(raw))
        assert main(["prepare", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert (list(summary["cached"]), summary["failed_subjects"]) == (["S001"], ["S002"])
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S002"]
        assert reason == f"ValueError: {run}: ValueError: EDF+C record 3 starts at 2.0 s, not 3.0 s"
        assert _tree(tmp_path / "cache" / "S001") == clean

    def test_trial_past_the_end_is_counted_in_the_summary(self, workspace, rng):
        # S001's run 4 ends inside its last trial, which is skipped: the
        # summary counts it, and stderr holds no text line
        tmp_path, _ = workspace
        rec = make_motor_recording(rng, CHANNELS_6, n_trials=12, discriminative=(1, 2))
        recording_to_edf(tmp_path / "data" / "S001" / "S001R04.edf",
                         replace(rec, data=rec.data[:, :-3 * 160]))
        cfg = write_config(tmp_path / "one.cfg", subjects="1")
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "emdscalp.cli", "prepare", "--config", str(cfg)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [src, *filter(None, [os.environ.get("PYTHONPATH")])])})
        assert proc.stderr == ""
        assert json.loads(proc.stdout) == {"cached": {"S001": 48 + 44}, "failed_subjects": [],
                                           "missing": [], "skipped_trials": {"S001": 1}}

    def test_edf_with_halved_record_count_fails_only_its_subject(self, workspace, capsys):
        tmp_path, cfg = workspace
        run = tmp_path / "data" / "S002" / "S002R03.edf"
        raw = bytearray(run.read_bytes())
        n_records = int(raw[236:244])
        raw[236:244] = str(n_records // 2).ljust(8).encode()
        run.write_bytes(bytes(raw))
        assert main(["prepare", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert (list(summary["cached"]), summary["failed_subjects"]) == (["S001"], ["S002"])
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S002"]
        assert reason.startswith(f"ValueError: {run}: ValueError: ")
        assert reason.endswith(f"bytes past the {n_records // 2} data records the header counts")

    @pytest.mark.parametrize("data, annotations", [
        ("", None), ("C3,C4\n1,2\n3\n", None), (None, "160,640"), (None, "x,160,T1"),
        (None, "1.5,160,T1"), (None, "-5,160,T1"), (None, "160,-1,T1"), (None, "99999,160,T1"),
    ], ids=["no header row", "short data row", "annotation row without code",
            "non-numeric onset", "fractional onset", "negative onset", "negative duration",
            "onset past the data"])
    def test_unparsable_csv_run_fails_only_its_subject(self, tmp_path, rng, capsys,
                                                       data, annotations):
        for sid in (1, 2):
            rec = make_motor_recording(rng, ["C3", "C4"], n_trials=8, discriminative=(1,))
            write_csv_run(tmp_path / "data" / f"S{sid:03d}" / f"S{sid:03d}R03.csv", rec)
        run = tmp_path / "data" / "S001" / "S001R03.csv"
        if data is not None:
            run.write_text(data)
        sidecar = run.with_name("S001R03_annotations.csv")
        if annotations is not None:
            sidecar.write_text(f"onset,duration,code\n{annotations}\n")
        cfg = write_config(tmp_path / "exp.cfg", runs="3", input_format="csv")
        assert main(["prepare", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert (list(summary["cached"]), summary["failed_subjects"]) == (["S002"], ["S001"])
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S001"]
        assert reason.startswith(f"ValueError: {run}: ValueError: ")
        assert reason.count(str(run)) == 1
        if annotations is not None:
            assert f"{sidecar} line 2: " in reason

    def test_band_without_a_stable_filter_fails_its_subjects(self, workspace, capsys):
        tmp_path, _ = workspace
        cfg = write_config(tmp_path / "band.cfg", band_lo=40.0, band_hi=79.999999999999)
        assert main(["prepare", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        run = tmp_path / "data" / "S001" / "S001R03.edf"
        assert (f"'S001': 'ValueError: {run}: ValueError: band (40.0, 79.999999999999) Hz "
                "is too close to 0 Hz or to Nyquist for a stable filter at 160.0 Hz'"
                ) in err["message"]

    def test_csv_field_over_the_csv_limit_fails_only_its_subject(self, tmp_path, rng, capsys):
        for sid in (1, 2):
            rec = make_motor_recording(rng, ["C3", "C4"], n_trials=8, discriminative=(1,))
            write_csv_run(tmp_path / "data" / f"S{sid:03d}" / f"S{sid:03d}R03.csv", rec)
        run = tmp_path / "data" / "S001" / "S001R03.csv"
        run.write_text("C3," + "x" * 131073 + "\n")
        cfg = write_config(tmp_path / "exp.cfg", runs="3", input_format="csv")
        assert main(["prepare", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["failed_subjects"] == ["S001"]
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S001"]
        assert reason.startswith(f"ValueError: {run}: Error: field larger than field limit")

    def test_no_usable_run_anywhere_fails(self, workspace, capsys):
        tmp_path, _ = workspace
        cfg = write_config(tmp_path / "exp9.cfg", runs="9")
        assert main(["prepare", "--config", str(cfg)]) == 1
        warning, err = map(json.loads, capsys.readouterr().err.strip().splitlines())
        assert warning == {"warning": "partial cohort", "missing": [
            str(tmp_path / "data" / tag / f"{tag}R09.edf") for tag in ("S001", "S002")]}
        reason = "ValueError: no usable run: none of runs [9] exists and holds a labeled trial"
        assert err == {"error": "ValueError", "message": "no subject completed prepare; "
                       f"failures: {({'S001': reason, 'S002': reason})}"}

    def test_subject_without_a_labeled_trial_fails_alone(self, tmp_path, rng, capsys):
        # S002's two runs hold only rest trials; S001's run 4 is absent
        for tag, run in (("S001", 3), ("S002", 3), ("S002", 4)):
            rec = make_motor_recording(rng, ["C3", "C4"], n_trials=8, discriminative=(1,))
            if tag == "S002":
                rec = replace(rec, annotations=[replace(a, code="T0") for a in rec.annotations])
            write_csv_run(tmp_path / "data" / tag / f"{tag}R{run:02d}.csv", rec)
        cfg = write_config(tmp_path / "exp.cfg", input_format="csv")
        assert main(["prepare", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        absent = [str(tmp_path / "data" / "S001" / "S001R04.csv")]
        assert (list(summary["cached"]), summary["failed_subjects"], summary["missing"]) == (
            ["S001"], ["S002"], absent)
        warning, failed = map(json.loads, captured.err.splitlines())
        assert warning == {"warning": "partial cohort", "missing": absent}
        assert failed == {"warning": "subjects failed", "failed": {"S002": (
            "ValueError: no usable run: none of runs [3, 4] exists and holds a labeled trial")}}
        assert not (tmp_path / "cache" / "S002").exists()

    def test_no_subject_prepared_fails(self, workspace, capsys):
        tmp_path, cfg = workspace
        for run in (tmp_path / "data").glob("S*/*.edf"):
            run.write_bytes(b"0       ")
        assert main(["prepare", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "no subject completed prepare" in err["message"]


def _index(n_epochs: int, channel_names=("C3", "C4")) -> tuple[list[str], list[str]]:
    """``labels`` and ``channel_names`` for ``write_epoch_cache``."""
    return ["T1"] * n_epochs, list(channel_names)


def _cache_files(tmp_path: Path, n_epochs=3):
    """Cache subject 1 with the covariances of ``n_epochs`` epochs of 2
    channels x 5 samples."""
    rng = np.random.default_rng(3)
    covs = spdgeom.covariance(rng.standard_normal((n_epochs, 2, 5)))
    subj_dir = cli.write_epoch_cache(tmp_path, 1, covs, *_index(n_epochs))
    return subj_dir / "epochs.npy", subj_dir / "index.json"


class TestEpochCache:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_bit_exact(self, tmp_path_factory, data):
        n, dim = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 3)))
        # includes -0.0, subnormals, huge magnitudes, infinities and NaN payloads
        arr = data.draw(hnp.arrays(np.float64, (n, dim, dim), elements=st.floats(width=64)))
        labels = data.draw(st.lists(st.text(max_size=4), min_size=n, max_size=n))
        names = [f"ch{c}" for c in range(dim)]
        cache_dir = tmp_path_factory.mktemp("cache")
        finite = np.isfinite(arr).all(axis=(1, 2))
        with np.errstate(over="ignore"):
            zero = np.trace(arr, axis1=1, axis2=2) == 0
        reason = (f"epoch {int(np.argmin(finite))}'s covariance has a non-finite entry"
                  if not finite.all() else
                  f"epoch {int(np.argmax(zero))}'s covariance has zero trace"
                  if zero.any() else None)
        if reason is not None:
            # rejected as the reader would reject it, before anything is written
            with pytest.raises(ValueError, match=f"^{re.escape(str(cache_dir / 'S005'))}: "
                                                 f"ValueError: {re.escape(reason)}$"):
                cli.write_epoch_cache(cache_dir, 5, arr, labels, names)
            assert list(cache_dir.iterdir()) == []
            return
        cli.write_epoch_cache(cache_dir, 5, arr, labels, names)
        got, index = cli.read_epoch_cache(cache_dir, 5)
        assert got.tobytes() == arr.tobytes()
        assert index == {"format_version": 5, "labels": labels, "channel_names": names}

    @settings(max_examples=60, deadline=None)
    @given(epoch=hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 8)),
                            elements=st.floats(-1e100, 1e100)),
           shrinkage=st.floats(0.0, 1.0, exclude_max=True))
    def test_shrunk_cached_covariance_equals_covariance(self, tmp_path_factory, epoch,
                                                        shrinkage):
        cache_dir = tmp_path_factory.mktemp("cache")
        names = [f"ch{c}" for c in range(epoch.shape[0])]
        covs = spdgeom.covariance([epoch])
        if np.trace(covs[0]) == 0:  # no variance that a float64 holds: never cached
            with pytest.raises(ValueError, match="epoch 0's covariance has zero trace$"):
                cli.write_epoch_cache(cache_dir, 1, covs, *_index(1, names))
            return
        cli.write_epoch_cache(cache_dir, 1, covs, *_index(1, names))
        cached, _ = cli.read_epoch_cache(cache_dir, 1)
        assert spdgeom.shrink(cached, shrinkage).tobytes() \
            == spdgeom.shrink(np.atleast_2d(np.cov(epoch))[None], shrinkage).tobytes()

    @pytest.mark.parametrize("shape", [(2, 3, 3), (2, 2), (1, 2, 2, 2)])
    def test_array_of_other_shape_rejected(self, tmp_path, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"S001: ValueError: epochs are <f8 {shape}; 2 labels and 2 channel names "
                f"need <f8 (2, 2, 2)")):
            cli.write_epoch_cache(tmp_path, 1, np.zeros(shape), *_index(2))
        assert not (tmp_path / "S001" / "epochs.npy").exists()

    def test_labels_of_other_length_rejected_before_writing(self, tmp_path):
        covs = np.broadcast_to(np.eye(2), (3, 2, 2))
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path / 'S001'}: ValueError: epochs are <f8 (3, 2, 2); 1 labels and "
                f"2 channel names need <f8 (1, 2, 2)")):
            cli.write_epoch_cache(tmp_path, 1, covs, *_index(1))
        assert not (tmp_path / "S001").exists()
        # an existing cache is left as it was
        npy, index_path = _cache_files(tmp_path)
        before = npy.read_bytes(), index_path.read_bytes()
        with pytest.raises(ValueError, match=re.escape("need <f8 (1, 2, 2)")):
            cli.write_epoch_cache(tmp_path, 1, covs, *_index(1))
        assert (npy.read_bytes(), index_path.read_bytes()) == before

    def test_format_2_cache_asks_for_prepare(self, tmp_path):
        # format 2 stored the samples, (n_epochs, n_channels, n_samples)
        npy, index_path = _cache_files(tmp_path)
        np.save(npy, np.zeros((3, 2, 5)))
        index = json.loads(index_path.read_text())
        index_path.write_text(json.dumps(dict(index, format_version=2, n_samples=5)))
        with pytest.raises(ValueError, match="index.json.*format_version 2.*re-run prepare"):
            cli.read_epoch_cache(tmp_path, 1)

    def test_format_3_cache_asks_for_prepare(self, tmp_path):
        # format 3 also stored subject, sample_rate, dtype, counts and per-epoch
        # trial and slice numbers
        _, index_path = _cache_files(tmp_path)
        index = json.loads(index_path.read_text())
        index_path.write_text(json.dumps(dict(
            index, format_version=3, subject=1, sample_rate=160.0, dtype="<f8", n_epochs=3,
            n_channels=2, trials=[0, 1, 2], slices=[0, 0, 0])))
        with pytest.raises(ValueError, match="index.json.*format_version 3.*re-run prepare"):
            cli.read_epoch_cache(tmp_path, 1)

    def test_format_4_cache_asks_for_prepare(self, tmp_path):
        # format 4 held covariances of the transfer-function bandpass, which
        # diverged at delta and theta bands
        _, index_path = _cache_files(tmp_path)
        index = json.loads(index_path.read_text())
        index_path.write_text(json.dumps(dict(index, format_version=4)))
        with pytest.raises(ValueError, match="index.json.*format_version 4.*re-run prepare"):
            cli.read_epoch_cache(tmp_path, 1)

    def test_truncated_array_rejected(self, tmp_path):
        npy, _ = _cache_files(tmp_path)
        npy.write_bytes(npy.read_bytes()[:-8])
        with pytest.raises(ValueError, match="epochs.npy"):
            cli.read_epoch_cache(tmp_path, 1)

    def test_trailing_bytes_rejected(self, tmp_path):
        npy, _ = _cache_files(tmp_path)
        npy.write_bytes(npy.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="epochs.npy.*bytes"):
            cli.read_epoch_cache(tmp_path, 1)

    @pytest.mark.parametrize("array", [np.zeros((2, 2, 2)), np.zeros((3, 2, 2), np.float32),
                                       np.zeros((3, 2, 2), ">f8"), np.zeros((3, 2, 5))])
    def test_array_disagreeing_with_index_rejected(self, tmp_path, array):
        npy, _ = _cache_files(tmp_path)
        np.save(npy, array)
        with pytest.raises(ValueError, match="S001: ValueError: epochs are"):
            cli.read_epoch_cache(tmp_path, 1)

    def test_missing_array_rejected(self, tmp_path):
        npy, _ = _cache_files(tmp_path)
        npy.unlink()
        with pytest.raises(FileNotFoundError, match="epochs.npy"):
            cli.read_epoch_cache(tmp_path, 1)

    def test_format_1_index_asks_for_prepare(self, tmp_path):
        _, index_path = _cache_files(tmp_path)
        index = json.loads(index_path.read_text())
        index_path.write_text(json.dumps(dict(index, format_version=1)))
        with pytest.raises(ValueError, match="index.json.*format_version 1.*re-run prepare"):
            cli.read_epoch_cache(tmp_path, 1)

    @pytest.mark.parametrize("version", [4.0, True, "4", None])
    def test_format_version_must_be_a_json_integer(self, tmp_path, version):
        _, index_path = _cache_files(tmp_path)
        index = json.loads(index_path.read_text())
        index_path.write_text(json.dumps(dict(index, format_version=version)))
        message = f"index.json: ValueError: format_version must be a JSON integer, not {version!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            cli.read_epoch_cache(tmp_path, 1)

    @pytest.mark.parametrize("edit", [
        {"labels": ["T1"]}, {"labels": None}, {"channel_names": ["C3"]},
        {"channel_names": None}, {"channel_names": "C3"}, {"channel_names": [3, 4]},
        {"channel_names": {"C3": 0, "C4": 1}}])
    def test_inconsistent_index_rejected(self, tmp_path, edit):
        _, index_path = _cache_files(tmp_path)
        index = json.loads(index_path.read_text())
        index_path.write_text(json.dumps({k: v for k, v in dict(index, **edit).items()
                                          if v is not None}))
        with pytest.raises(ValueError, match=r"S001: ValueError: (labels|channel_names(\[0\])?) "
                                             "must be a JSON (array|string), not [^ ]+$|"
                                             "S001: ValueError: epochs are"):
            cli.read_epoch_cache(tmp_path, 1)

    def test_rewrite_replaces_index_last(self, tmp_path, monkeypatch):
        npy, index_path = _cache_files(tmp_path)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        before = npy.read_bytes()
        monkeypatch.setattr(np, "save", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _cache_files(tmp_path, n_epochs=4)
        # no index survives over the array, which keeps its old bytes
        assert not index_path.exists()
        assert npy.read_bytes() == before
        assert [p.name for p in npy.parent.iterdir()] == ["epochs.npy"]
        with pytest.raises(FileNotFoundError):
            cli.read_epoch_cache(tmp_path, 1)


class TestTrainEval:
    def test_all_channels_separable_cohort(self, workspace, capsys):
        tmp_path, cfg = workspace
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert main(["train-eval", "--config", str(cfg)]) == 0
        rows = json.loads((tmp_path / "out" / "rows.json").read_text())
        assert len(rows) == 2
        for row in rows:
            assert row["overall"] >= 0.95
            assert row["n_channels"] == 6

    def test_feat21_riemannian_selects_discriminative(self, workspace):
        tmp_path, cfg2 = workspace
        cfg = write_config(tmp_path / "feat.cfg", channel_config="feat21",
                           target_k=2)
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert main(["train-eval", "--config", str(cfg)]) == 0
        rows = json.loads((tmp_path / "out" / "rows.json").read_text())
        for row in rows:
            assert row["n_channels"] == 2
        cohort = json.loads((tmp_path / "out" / "cohort_riemannian.json").read_text())
        # channels 1 and 2 of CHANNELS_6 carry the class difference
        assert cohort["selections"]["S001"] == ["C3", "C4"]
        assert (tmp_path / "out" / "trace_S001.json").exists()
        assert (tmp_path / "out" / "map_riemannian_binary_top2.csv").exists()

    @pytest.mark.parametrize("edit", [{"channels": ["FC5", "C3", "C4", "Cz", "Fp1", "XYZ"]},
                                      {"channels": 5}, {"per_class": [1, 2]},
                                      pytest.param("{", id="truncated"),
                                      pytest.param("[1, 2]", id="list")])
    def test_bad_external_relevance_file_fails_its_subject(self, workspace, capsys, edit):
        """`edit` is a change to a valid document, or the file's whole text."""
        tmp_path, _ = workspace
        doc = {"channels": ["FC5", "C3", "C4", "Cz", "Fp1", "Oz"],
               "pooled": [0.1, 0.9, 0.8, 0.7, 0.0, 0.2]}
        (tmp_path / "rel_001.json").write_text(json.dumps(doc))
        bad = tmp_path / "rel_002.json"
        bad.write_text(edit if isinstance(edit, str) else json.dumps(dict(doc, **edit)))
        cfg = write_config(tmp_path / "ext.cfg", channel_config="feat21",
                           relevance_source="external:xnet",
                           relevance_pattern="rel_{subject:03d}.json", target_k=3)
        assert main(["prepare", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["train-eval", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["failed_subjects"] == ["S002"]
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S002"]
        assert reason.startswith(f"ValueError: {bad}: ")
        rows = json.loads((tmp_path / "out" / "rows.json").read_text())
        assert [r["subject"] for r in rows] == [1]

    def test_feat21_external_matches_top_k(self, workspace):
        tmp_path, _ = workspace
        doc = {
            "subject": "S001", "model": "xnet",
            "channels": ["FC5", "C3", "C4", "Cz", "Fp1", "Oz"],
            "pooled": [0.1, 0.9, 0.8, 0.7, 0.0, 0.2],
        }
        for sid in (1, 2):
            (tmp_path / f"rel_{sid:03d}.json").write_text(json.dumps(doc))
        cfg = write_config(
            tmp_path / "ext.cfg", channel_config="feat21",
            relevance_source="external:xnet",
            relevance_pattern="rel_{subject:03d}.json", target_k=3,
        )
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert main(["train-eval", "--config", str(cfg)]) == 0
        cohort = json.loads((tmp_path / "out" / "cohort_xnet.json").read_text())
        assert cohort["selections"]["S001"] == ["C3", "C4", "Cz"]

    def test_mi21_needs_every_baseline_channel(self, workspace, layout, capsys):
        tmp_path, _ = workspace
        cfg = write_config(tmp_path / "mi.cfg", channel_config="mi21")
        assert main(["prepare", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["train-eval", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        present = set(layout.resolve_all(CHANNELS_6))
        missing = [c for c in relevance.MI_BASELINE_CHANNELS if c not in present]
        reason = f"ValueError: recording lacks baseline channels: {missing}"
        assert err == {"error": "ValueError", "message": "no subject completed train-eval; "
                       f"failures: {({'S001': reason, 'S002': reason})}"}

    def test_relevance_naming_a_channel_the_recording_lacks_fails_its_subject(
            self, workspace, capsys):
        tmp_path, _ = workspace
        doc = {"channels": ["FC5", "C3", "C4", "Cz", "Fp1", "Oz"],
               "pooled": [0.1, 0.9, 0.8, 0.7, 0.0, 0.2]}
        (tmp_path / "rel_001.json").write_text(json.dumps(doc))
        bad = tmp_path / "rel_002.json"  # P3 is a montage electrode, not a recorded one
        bad.write_text(json.dumps({"channels": doc["channels"] + ["P3"],
                                   "pooled": doc["pooled"] + [1.0]}))
        cfg = write_config(tmp_path / "ext.cfg", channel_config="feat21",
                           relevance_source="external:xnet",
                           relevance_pattern="rel_{subject:03d}.json", target_k=3)
        assert main(["prepare", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["train-eval", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["failed_subjects"] == ["S002"]
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S002"]
        assert reason == (f"ValueError: {bad}: ValueError: relevance names not present in "
                          "recording: ['P3']")

    def test_mi21_trains_on_exactly_21_channels(self, tmp_path, rng):
        channels = [c + "." for c in relevance.MI_BASELINE_CHANNELS] + ["Fp1.", "Oz.."]
        build_dataset(tmp_path / "data", [1], [3], channels, rng,
                      n_trials=8, discriminative=(1, 8))
        cfg = write_config(tmp_path / "exp.cfg", subjects="1", runs="3",
                           channel_config="mi21")
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert main(["train-eval", "--config", str(cfg)]) == 0
        rows = json.loads((tmp_path / "out" / "rows.json").read_text())
        assert rows[0]["n_channels"] == 21

    def test_missing_subject_cache_reported_run_continues(self, workspace, capsys):
        tmp_path, _ = workspace
        cfg = write_config(tmp_path / "exp3.cfg", subjects="1,2,3")
        assert main(["prepare", "--config", str(cfg)]) == 0  # warns about S003
        assert main(["train-eval", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        warning = next(
            json.loads(line) for line in captured.err.splitlines()
            if "subjects failed" in line
        )
        assert "S003" in warning["failed"]
        rows = json.loads((tmp_path / "out" / "rows.json").read_text())
        assert [r["subject"] for r in rows] == [1, 2]

    def test_corrupt_cache_reported_not_scored(self, workspace, capsys):
        tmp_path, cfg = workspace
        assert main(["prepare", "--config", str(cfg)]) == 0
        npy = tmp_path / "cache" / "S002" / "epochs.npy"
        npy.write_bytes(npy.read_bytes()[: npy.stat().st_size // 2])
        capsys.readouterr()
        assert main(["train-eval", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["failed_subjects"] == ["S002"]
        assert "epochs.npy" in json.loads(captured.err.splitlines()[-1])["failed"]["S002"]
        rows = json.loads((tmp_path / "out" / "rows.json").read_text())
        assert [r["subject"] for r in rows] == [1]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_training_epoch_fails_its_subject(self, workspace, capsys, value):
        tmp_path, cfg = workspace
        assert main(["prepare", "--config", str(cfg)]) == 0
        npy = tmp_path / "cache" / "S002" / "epochs.npy"
        covs, index = cli.read_epoch_cache(tmp_path / "cache", 2)
        c = load_config(cfg)
        train, _ = signal.split(index["labels"], c.seed, c.test_fraction)
        covs[train[1], 0, 2] = covs[train[1], 2, 0] = value
        np.save(npy, covs)
        capsys.readouterr()
        assert main(["train-eval", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["failed_subjects"] == ["S002"]
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S002"]
        assert reason.startswith(f"ValueError: {npy.parent}: ValueError: epoch {train[1]}'s "
                                 f"covariance has a non-finite entry")
        rows = json.loads((tmp_path / "out" / "rows.json").read_text())
        assert [r["subject"] for r in rows] == [1]

    @pytest.mark.parametrize("text", ["{", "[1, 2]"])
    def test_unparsable_index_fails_its_subject(self, workspace, capsys, text):
        tmp_path, cfg = workspace
        assert main(["prepare", "--config", str(cfg)]) == 0
        index = tmp_path / "cache" / "S002" / "index.json"
        index.write_text(text)
        capsys.readouterr()
        assert main(["train-eval", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["failed_subjects"] == ["S002"]
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S002"]
        assert reason.startswith(f"ValueError: {index}: ")
        rows = json.loads((tmp_path / "out" / "rows.json").read_text())
        assert [r["subject"] for r in rows] == [1]

    def test_same_seed_reproduces_rows_exactly(self, workspace):
        tmp_path, cfg = workspace
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert main(["train-eval", "--config", str(cfg), "--seed", "11",
                     "--output-dir", str(tmp_path / "o1")]) == 0
        assert main(["train-eval", "--config", str(cfg), "--seed", "11",
                     "--output-dir", str(tmp_path / "o2")]) == 0
        r1 = (tmp_path / "o1" / "rows.csv").read_bytes()
        r2 = (tmp_path / "o2" / "rows.csv").read_bytes()
        assert r1 == r2


class TestSelectChannels:
    @pytest.mark.parametrize("channels, discriminative, selected", [
        (CHANNELS_6, (1, 2), ["C3", "C4"]),
        (CHANNELS_6 + ["EXG1"], (1, 2), ["C3", "C4"]),
        # EXG1 carries a class difference but has no montage name
        (CHANNELS_6 + ["EXG1"], (1, 6), ["C3"]),
    ], ids=["montage", "exg1", "exg1-selected"])
    def test_writes_traces_and_cohort(self, tmp_path, rng, layout, channels,
                                      discriminative, selected):
        build_dataset(tmp_path / "data", [1, 2], [3, 4], channels, rng,
                      discriminative=discriminative)
        cfg = write_config(tmp_path / "sel.cfg", target_k=2, output_dir="sel")
        feat = write_config(tmp_path / "feat.cfg", target_k=2, output_dir="feat",
                            channel_config="feat21")
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert main(["select-channels", "--config", str(cfg)]) == 0
        assert main(["train-eval", "--config", str(feat)]) == 0
        cohort, feat21 = (json.loads((tmp_path / d / "cohort_riemannian.json").read_text())
                          for d in ("sel", "feat"))
        assert cohort["model"] == "riemannian"
        assert cohort["selections"] == feat21["selections"] == {"S001": selected,
                                                                "S002": selected}
        assert cohort["counts"] == {name: 2 for name in selected}
        assert all(name in layout for name in cohort["counts"])
        for tag in ("S001", "S002"):
            trace = (tmp_path / "sel" / f"trace_{tag}.json").read_bytes()
            assert trace == (tmp_path / "feat" / f"trace_{tag}.json").read_bytes()
        # the classifier trains on both surviving channels, named or not
        rows = json.loads((tmp_path / "feat" / "rows.json").read_text())
        assert [r["n_channels"] for r in rows] == [2, 2]

    @pytest.mark.parametrize("target_k", [1, 6, 7])
    def test_target_k_from_one_to_the_channel_count(self, workspace, capsys, target_k):
        # one k rule for both selection sources and for select-channels:
        # 1 <= k <= the 6 recorded channels
        tmp_path, cfg = workspace
        doc = {"channels": ["FC5", "C3", "C4", "Cz", "Fp1", "Oz"],
               "pooled": [0.1, 0.9, 0.8, 0.7, 0.0, 0.2]}
        for sid in (1, 2):
            (tmp_path / f"rel_{sid:03d}.json").write_text(json.dumps(doc))
        riemannian = {"channel_config": "feat21", "target_k": target_k}
        external = dict(riemannian, relevance_source="external:xnet",
                        relevance_pattern="rel_{subject:03d}.json")
        assert main(["prepare", "--config", str(cfg)]) == 0
        for n, (command, keys, cohort) in enumerate([
                ("train-eval", riemannian, "riemannian"), ("train-eval", external, "xnet"),
                ("select-channels", riemannian, "riemannian")]):
            run_cfg = write_config(tmp_path / f"k{n}.cfg", output_dir=f"out{n}", **keys)
            capsys.readouterr()
            if target_k <= 6:
                assert main([command, "--config", str(run_cfg)]) == 0
                written = json.loads((tmp_path / f"out{n}" / f"cohort_{cohort}.json").read_text())
                assert [len(names) for names in written["selections"].values()] == [target_k] * 2
            else:
                assert main([command, "--config", str(run_cfg)]) == 1
                err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
                assert err["message"].count("must be in [1, 6], got 7") == 2

    def test_missing_subject_reported_run_continues(self, workspace, capsys):
        tmp_path, _ = workspace
        cfg = write_config(tmp_path / "sel3.cfg", subjects="1,3", target_k=2)
        assert main(["prepare", "--config", str(cfg)]) == 0  # warns about S003
        capsys.readouterr()
        assert main(["select-channels", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert summary["subjects"] == 1
        assert summary["failed_subjects"] == ["S003"]
        warning = json.loads(captured.err.splitlines()[-1])
        assert warning["warning"] == "subjects failed" and "S003" in warning["failed"]
        cohort = json.loads((tmp_path / "out" / "cohort_riemannian.json").read_text())
        assert cohort["subjects"] == ["S001"]
        assert not (tmp_path / "out" / "trace_S003.json").exists()

    def test_no_subject_completing_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sel.cfg", subjects="4")
        assert main(["select-channels", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "no subject completed select-channels" in err["message"]


#: The 21 baseline electrodes plus two others, for ``mi21`` on a CSV cohort.
CHANNELS_23 = list(relevance.MI_BASELINE_CHANNELS) + ["Fp1", "Oz"]


def _csv_cohort(tmp_path: Path, rng) -> Path:
    """Write three one-run CSV subjects of `CHANNELS_23`; return their `mi21` config."""
    for sid in (1, 2, 3):
        rec = make_motor_recording(rng, CHANNELS_23, n_trials=8, discriminative=(8, 12))
        write_csv_run(tmp_path / "data" / f"S{sid:03d}" / f"S{sid:03d}R03.csv", rec)
    return write_config(tmp_path / "exp.cfg", subjects="1,2,3", runs="3",
                        input_format="csv", channel_config="mi21")


def _only_s002_failed(capsys, out_dir: Path, clean_rows: list[str]) -> str:
    """The reason S002 failed, after checking that it alone failed and that
    S001's and S003's rows are the bytes of `clean_rows`' (header, S001,
    S002, S003)."""
    captured = capsys.readouterr()
    assert json.loads(captured.out)["failed_subjects"] == ["S002"]
    rows = (out_dir / "rows.csv").read_text().splitlines()
    assert rows == [clean_rows[0], clean_rows[1], clean_rows[3]]
    return json.loads(captured.err.splitlines()[-1])["failed"]["S002"]


class TestOneSubjectFails:
    """A damaged input of one subject of three fails that subject alone."""

    def test_header_naming_one_electrode_twice(self, tmp_path, rng, capsys):
        cfg = _csv_cohort(tmp_path, rng)
        run = tmp_path / "data" / "S002" / "S002R03.csv"
        text = run.read_text()
        run.write_text(text.replace(",Fp1,", ",c3,", 1))
        assert main(["prepare", "--config", str(cfg)]) == 0
        # the same cohort without the damage, for S001's and S003's rows
        run.write_text(text)
        clean_cfg = write_config(tmp_path / "clean.cfg", subjects="1,2,3", runs="3",
                                 input_format="csv", channel_config="mi21",
                                 cache_dir="clean_cache", output_dir="clean")
        assert main(["prepare", "--config", str(clean_cfg)]) == 0
        assert main(["train-eval", "--config", str(clean_cfg)]) == 0
        clean = (tmp_path / "clean" / "rows.csv").read_text().splitlines()
        capsys.readouterr()
        index = tmp_path / "cache" / "S002" / "index.json"
        twice = "ValueError: 'C3' and 'c3' name electrode 'C3' twice"
        assert main(["train-eval", "--config", str(cfg)]) == 0
        reason = _only_s002_failed(capsys, tmp_path / "out", clean)
        assert reason == f"ValueError: {index}: {twice}"
        assert main(["select-channels", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["failed_subjects"] == ["S002"]
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S002"]
        assert reason == f"ValueError: {index}: {twice}"

    def test_prepare_over_damaged_cache(self, tmp_path, rng, capsys):
        cfg = _csv_cohort(tmp_path, rng)
        assert main(["prepare", "--config", str(cfg)]) == 0
        subj_dir = tmp_path / "cache" / "S002"
        (subj_dir / "index.json").unlink()
        (subj_dir / "index.json").mkdir()
        capsys.readouterr()
        assert main(["prepare", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert (list(summary["cached"]), summary["failed_subjects"]) == (["S001", "S003"],
                                                                         ["S002"])
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S002"]
        assert reason.startswith(f"ValueError: {subj_dir}: IsADirectoryError: ")

    @pytest.mark.parametrize("damage, file, message", [
        ("directory", "index.json", "IsADirectoryError: "),
        ("directory", "epochs.npy", "IsADirectoryError: "),
        # the cache check names the subject directory, as write_epoch_cache does
        ("list label", "", "ValueError: labels[0] must be a JSON string, not list"),
        ("string labels", "", "ValueError: labels must be a JSON array, not 'LRLR"),
        ("one class", "index.json", "ValueError: need at least 2 classes to split"),
        ("string channel names", "", "ValueError: channel_names must be a JSON array, not 'ABC"),
        ("dict channel names", "", "ValueError: channel_names must be a JSON array, not dict"),
    ])
    def test_damaged_cache(self, tmp_path, rng, capsys, damage, file, message):
        cfg = _csv_cohort(tmp_path, rng)
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert main(["train-eval", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "clean")]) == 0
        clean = (tmp_path / "clean" / "rows.csv").read_text().splitlines()
        index = tmp_path / "cache" / "S002" / "index.json"
        doc = json.loads(index.read_text())
        if damage == "directory":
            (index.parent / file).unlink()
            (index.parent / file).mkdir()
        elif damage.endswith("channel names"):
            names = doc["channel_names"]  # one character or key per channel
            doc["channel_names"] = ("".join(chr(65 + i) for i in range(len(names)))
                                    if damage.startswith("string") else dict.fromkeys(names, 0))
        else:
            doc["labels"] = {"list label": [["Left"]] + doc["labels"][1:],
                             "string labels": "LR" * (len(doc["labels"]) // 2),
                             "one class": ["Left"] * len(doc["labels"])}[damage]
        if damage != "directory":
            index.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["train-eval", "--config", str(cfg)]) == 0
        reason = _only_s002_failed(capsys, tmp_path / "out", clean)
        assert reason.startswith(f"ValueError: {index.parent / file}: {message}")


class TestLoadableEpochDamage:
    """An epoch of S002's cache that loads, but whose covariance a kernel
    cannot take, fails S002 alone in ``train-eval`` and ``select-channels``,
    named as its cache epoch after the path of S002's ``index.json``; S001's
    and S003's rows and traces keep the bytes of the undamaged run."""

    COMMANDS = ("train-eval", "select-channels")

    @pytest.fixture(scope="class")
    def cohort(self, tmp_path_factory) -> Path:
        """A prepared three-subject CSV cohort and, under ``clean/<command>``,
        the outputs of each command on it at ``feat21``."""
        root = tmp_path_factory.mktemp("loadable_damage")
        _csv_cohort(root, np.random.default_rng(11))
        cfg = self._config(root, root)
        assert main(["prepare", "--config", cfg]) == 0
        for command in self.COMMANDS:
            assert main([command, "--config", cfg,
                         "--output-dir", str(root / "clean" / command)]) == 0
        return root

    @staticmethod
    def _config(root: Path, cohort: Path) -> str:
        return str(write_config(root / "feat21.cfg", dataset_root=cohort / "data",
                                subjects="1,2,3", runs="3", input_format="csv",
                                channel_config="feat21"))

    @pytest.mark.parametrize("command, split", [("train-eval", "train"), ("train-eval", "test"),
                                                ("select-channels", "train")])
    def test_asymmetric_epoch_fails_its_subject_naming_it(self, cohort, tmp_path, capsys,
                                                          command, split):
        cache = tmp_path / "cache"
        shutil.copytree(cohort / "cache", cache)
        covs, index = cli.read_epoch_cache(cache, 2)
        labels = index["labels"]
        part = signal.split(labels, 7, 0.25)[split == "test"]
        epoch = part[-1]
        same_class = [i for i in part if labels[i] == labels[epoch]]
        assert epoch not in (part.index(epoch), same_class.index(epoch))  # not a stack place
        covs[epoch] += np.triu(np.full(covs.shape[1:], 1e-3 * np.abs(covs[epoch]).max()), 1)
        cli.write_epoch_cache(cache, 2, covs, labels, index["channel_names"])
        capsys.readouterr()
        assert main([command, "--config", self._config(tmp_path, cohort)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["failed_subjects"] == ["S002"]
        assert json.loads(captured.err.splitlines()[-1])["failed"]["S002"] == (
            f"ValueError: {cache / 'S002' / 'index.json'}: MatrixError: epoch {epoch}'s "
            "covariance is not symmetric within 1e-10 relative")
        out, clean = tmp_path / "out", cohort / "clean" / command
        if command == "train-eval":  # the header, S001's and S003's rows
            rows = (clean / "rows.csv").read_bytes().splitlines()
            assert (out / "rows.csv").read_bytes().splitlines() == [rows[0], rows[1], rows[3]]
        assert sorted(p.name for p in out.glob("trace_*.json")) == ["trace_S001.json",
                                                                    "trace_S003.json"]
        for trace in out.glob("trace_*.json"):
            assert trace.read_bytes() == (clean / trace.name).read_bytes()

    def test_only_a_covariance_is_renamed_to_its_cache_epoch(self, tmp_path):
        # a centroid, or a pair of centroids too far apart to compare, keeps its own name
        split_epochs = [5, 9]
        far = ("are too far apart to compare in double precision: a generalized eigenvalue "
               "is not finite and positive")
        for exc in (spdgeom.SingularMatrixError(1, "centroid {j}"),
                    spdgeom.MatrixError(0, "centroid 0 and centroid 1", far),
                    ValueError("a generalized eigenvalue is not finite and positive")):
            with pytest.raises(type(exc)) as err, \
                    cli._naming_epochs(tmp_path, 2, split_epochs):
                raise exc
            assert err.value is exc
        for exc, renamed in [
                (spdgeom.SingularMatrixError(1, "covariance {j}"),
                 spdgeom.SingularMatrixError(9, "epoch {j}'s covariance")),
                (spdgeom.MatrixError(1, "covariance {j} and centroid 0", far),
                 spdgeom.MatrixError(9, "epoch {j}'s covariance and centroid 0", far)),
                (spdgeom.MatrixError(0, "covariance {j}", "has a non-finite entry"),
                 spdgeom.MatrixError(5, "epoch {j}'s covariance", "has a non-finite entry"))]:
            with pytest.raises(ValueError) as err, cli._naming_epochs(tmp_path, 2, split_epochs):
                raise exc
            assert str(err.value) == (f"{tmp_path / 'S002' / 'index.json'}: "
                                      f"{type(exc).__name__}: {renamed}")
            # `args` follows the rename, so repr and pickle name the cache epoch too
            assert err.value.__cause__ is exc and repr(exc) == repr(renamed)
            back = pickle.loads(pickle.dumps(exc))
            assert (type(back), back.args, str(back)) == (type(exc), renamed.args, str(renamed))


class TestConcurrentSubjects:
    """``train-eval`` and ``select-channels`` run their subjects on a pool of
    up to one thread per usable CPU; what they write, print and report does
    not depend on the CPU count."""

    CHAIN = (("train-eval", "all64"), ("train-eval", "mi21"), ("train-eval", "feat21"),
             ("select-channels", "all64"))

    @pytest.fixture(scope="class")
    def prepared(self, tmp_path_factory) -> Path:
        """Four one-run CSV subjects of `CHANNELS_23`, prepared into ``cache``."""
        root = tmp_path_factory.mktemp("concurrent_subjects")
        rng = np.random.default_rng(23)
        for sid in (1, 2, 3, 4):
            rec = make_motor_recording(rng, CHANNELS_23, n_trials=8, discriminative=(8, 12))
            write_csv_run(root / "data" / f"S{sid:03d}" / f"S{sid:03d}R03.csv", rec)
        assert main(["prepare", "--config", str(self._config(root, root, "all64"))]) == 0
        return root

    @staticmethod
    def _config(run: Path, cohort: Path, channel_config: str) -> Path:
        return write_config(run / f"{channel_config}.cfg", dataset_root=cohort / "data",
                            subjects="1,2,3,4", runs="3", input_format="csv",
                            channel_config=channel_config)

    def _chain(self, prepared: Path, run: Path, capsys, corrupt: bool = False) -> list:
        """Run `CHAIN` in `run` on a copy of the prepared cache, with S002's
        ``epochs.npy`` cut short if `corrupt`; each command's stdout and
        stderr, `run`'s path replaced."""
        shutil.copytree(prepared / "cache", run / "cache")
        if corrupt:
            npy = run / "cache" / "S002" / "epochs.npy"
            npy.write_bytes(npy.read_bytes()[:-8])
        capsys.readouterr()
        printed = []
        for command, channel_config in self.CHAIN:
            assert main([command, "--config", str(self._config(run, prepared, channel_config)),
                         "--output-dir", str(run / "out" / f"{command}-{channel_config}")]) == 0
            captured = capsys.readouterr()
            printed.append(tuple(text.replace(str(run), "<run>")
                                 for text in (captured.out, captured.err)))
        return printed

    @pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "S002 corrupt"])
    def test_same_bytes_and_reports_on_any_cpu_count(self, prepared, tmp_path, monkeypatch,
                                                     capsys, corrupt):
        # three subject threads on a host that may have fewer CPUs, switching
        # often, so that any state the subjects' steps share shows up
        outcomes, interval = [], sys.getswitchinterval()
        for cpus in (1, 2, 3):
            monkeypatch.setattr(spdgeom, "_usable_cpus", lambda: cpus)
            run = tmp_path / f"cpus{cpus}"
            sys.setswitchinterval(1e-5)
            try:
                printed = self._chain(prepared, run, capsys, corrupt)
            finally:
                sys.setswitchinterval(interval)
            for out, err in printed:
                assert json.loads(out)["failed_subjects"] == (["S002"] if corrupt else [])
                assert bool(err) == corrupt
            outcomes.append((_tree(run / "out"), printed))
        assert len(outcomes[0][0]) == 18 - 2 * corrupt  # rows, cohorts, maps and traces
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_two_subjects_run_at_once_on_two_cpus(self, prepared, tmp_path, monkeypatch,
                                                  capsys):
        # each subject's step waits at the barrier until another subject's
        # arrives, so the commands complete only if two steps run at once;
        # the class means run on the subjects' threads, not on helpers
        monkeypatch.setattr(spdgeom, "_usable_cpus", lambda: 2)
        barrier = threading.Barrier(2, timeout=10)
        read_split, frechet_mean = cli._read_split, spdgeom.frechet_mean
        subject_threads, mean_threads = set(), set()

        def meet(cfg, layout, cache_dir, subject):
            subject_threads.add(threading.get_ident())
            barrier.wait()
            return read_split(cfg, layout, cache_dir, subject)

        def mean(mats):
            mean_threads.add(threading.get_ident())
            return frechet_mean(mats)

        monkeypatch.setattr(cli, "_read_split", meet)
        monkeypatch.setattr(spdgeom, "frechet_mean", mean)
        for out, _ in self._chain(prepared, tmp_path, capsys):
            assert json.loads(out)["failed_subjects"] == []
        assert len(subject_threads) >= 2 and threading.get_ident() not in subject_threads
        assert mean_threads and mean_threads <= subject_threads

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("command", ["train-eval", "select-channels"])
    def test_other_error_is_the_first_subjects_on_any_cpu_count(self, prepared, tmp_path,
                                                                monkeypatch, capsys, cpus,
                                                                command):
        # S002 and S003 raise an error that fails the command, not the subject;
        # on two CPUs S003 (started when S001 ends) raises first in time
        monkeypatch.setattr(spdgeom, "_usable_cpus", lambda: cpus)
        read_split, s003_raised = cli._read_split, threading.Event()

        def fail(cfg, layout, cache_dir, subject):
            if subject == 3:
                s003_raised.set()
                raise RuntimeError("S003's step")
            if subject == 2:
                s003_raised.wait(timeout=30 if cpus > 1 else 0)
                raise RuntimeError("S002's step")
            return read_split(cfg, layout, cache_dir, subject)

        monkeypatch.setattr(cli, "_read_split", fail)
        shutil.copytree(prepared / "cache", tmp_path / "cache")
        capsys.readouterr()
        before = threading.active_count()
        assert main([command, "--config", str(self._config(tmp_path, prepared, "all64"))]) == 1
        assert threading.active_count() == before  # no worker left running
        assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
            "error": "RuntimeError", "message": "S002's step"}
        assert s003_raised.is_set() == (cpus > 1)


class TestReadSplit:
    def test_one_shrunk_array_in_training_then_test_order(self, workspace, layout,
                                                          monkeypatch):
        # the parts are views of one array, training rows grouped by class,
        # and each class's Fréchet mean reads the training rows themselves
        tmp_path, cfg_path = workspace
        assert main(["prepare", "--config", str(cfg_path)]) == 0
        cfg = load_config(cfg_path)
        cache = Path(cfg.cache_dir)
        read_epoch_cache, loaded = cli.read_epoch_cache, []

        def read(cache_dir, subject):
            covs, index = read_epoch_cache(cache_dir, subject)
            loaded.append(covs)
            return covs, index

        monkeypatch.setattr(cli, "read_epoch_cache", read)
        _, (train, train_labels, train_epochs), (test, test_labels, test_epochs) = \
            cli._read_split(cfg, layout, cache, 1)
        # both parts lie in the very array the cache read returned
        assert train.base is not None and train.base is test.base
        assert np.shares_memory(loaded[0], train) and np.shares_memory(loaded[0], test)
        assert train.flags.c_contiguous and test.flags.c_contiguous
        covs, index = read_epoch_cache(cache, 1)
        want, labels = spdgeom.shrink(covs, cfg.shrinkage), index["labels"]
        for part, part_labels, epochs in ((train, train_labels, train_epochs),
                                          (test, test_labels, test_epochs)):
            assert [m.tobytes() for m in part] == [want[e].tobytes() for e in epochs]
            assert part_labels == [labels[e] for e in epochs]
        split_train, split_test = signal.split(labels, cfg.seed, cfg.test_fraction)
        assert test_epochs == split_test
        assert train_epochs == [e for c in sorted(set(labels)) for e in split_train
                                if labels[e] == c]
        frechet_mean, shared = spdgeom.frechet_mean, []

        def mean(mats):
            shared.append(np.shares_memory(mats, train))
            return frechet_mean(mats)

        monkeypatch.setattr(spdgeom, "frechet_mean", mean)
        spdgeom.mdm_fit(train, train_labels)
        assert shared == [True, True]


def _memo_entries(tmp_path: Path, subject: str = "S002") -> list[Path]:
    return sorted((tmp_path / "cache" / subject / "derived").iterdir())


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


class TestDerivedMemo:
    CHAIN = (("train-eval", "all64"), ("train-eval", "feat21"), ("select-channels", "all64"))

    def _chain(self, tmp_path: Path, out: Path, clear_memo: bool = False) -> None:
        for command, channel_config in self.CHAIN:
            if clear_memo:
                for derived in (tmp_path / "cache").glob("S*/derived"):
                    shutil.rmtree(derived)
            cfg = write_config(tmp_path / f"{channel_config}.cfg",
                               channel_config=channel_config, target_k=2)
            assert main([command, "--config", str(cfg), "--output-dir",
                         str(out / f"{command}-{channel_config}")]) == 0

    def test_each_class_mean_and_elimination_computed_once(self, workspace, monkeypatch):
        tmp_path, cfg = workspace
        assert main(["prepare", "--config", str(cfg)]) == 0
        dims, eliminations = [], []
        frechet_mean, backward_elimination = spdgeom.frechet_mean, spdgeom.backward_elimination

        def counted_mean(mats, **kwargs):
            dims.append(np.shape(mats[0])[0])
            return frechet_mean(mats, **kwargs)

        def counted_elimination(*args, **kwargs):
            eliminations.append(args)
            return backward_elimination(*args, **kwargs)

        monkeypatch.setattr(spdgeom, "frechet_mean", counted_mean)
        monkeypatch.setattr(spdgeom, "backward_elimination", counted_elimination)
        self._chain(tmp_path, tmp_path / "out")
        # two subjects x two classes on all 6 channels, then on feat21's 2
        assert dims.count(6) == 4 and dims.count(2) == 4 and len(dims) == 8
        assert len(eliminations) == 2

    @pytest.mark.parametrize("same_key", [False, True], ids=["two-keys", "one-key"])
    def test_second_fit_reads_the_one_entry(self, tmp_path, rng, monkeypatch, same_key):
        # Two fits of one input write one entry, also when both classes hold
        # the same covariances; the second fit reads it and fits nothing.
        first = [rand_spd(rng, 4) for _ in range(3)]
        covs = np.array(first + (first if same_key else [rand_spd(rng, 4) for _ in range(3)]))
        labels = [0, 0, 0, 1, 1, 1]
        memo = cli.DerivedMemo(tmp_path, 1)
        fitted = memo.mdm_fit(covs, labels)
        entries = sorted(p.name for p in memo.root.iterdir())
        assert len(entries) == 1
        assert all(re.fullmatch(r"model-[0-9a-f]{64}\.npy", name) for name in entries)
        monkeypatch.setattr(spdgeom, "mdm_fit", None)  # every centroid from the memo
        read = memo.mdm_fit(covs, labels)
        assert read.classes == fitted.classes == (0, 1)
        assert [c.tobytes() for c in read.centroids] == [c.tobytes() for c in fitted.centroids]
        assert sorted(p.name for p in memo.root.iterdir()) == entries

    def test_warm_memo_outputs_byte_identical(self, workspace):
        tmp_path, cfg = workspace
        assert main(["prepare", "--config", str(cfg)]) == 0
        self._chain(tmp_path, tmp_path / "cold", clear_memo=True)
        self._chain(tmp_path, tmp_path / "warm")
        cold, warm = _tree(tmp_path / "cold"), _tree(tmp_path / "warm")
        assert len(cold) == 12 and cold == warm

    @pytest.mark.parametrize("damage, kind", [
        (damage, kind) for damage in ("truncate", "garbage", "wrong shape")
        for kind in ("model", "trace")
    ] + [(damage, "model") for damage in ("NaN", "asymmetric", "negative definite",
                                             "below the floor", "single precision")]
      + [(damage, "trace") for damage in (
          "channel out of range", "channel kept twice", "fractional channel", "NaN distance",
          "infinite drop", "iterations out of order", "another problem")])
    def test_corrupt_entry_fails_its_subject(self, workspace, capsys, kind, damage):
        tmp_path, _ = workspace
        cfg = write_config(tmp_path / "feat.cfg", channel_config="feat21", target_k=2)
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert main(["train-eval", "--config", str(cfg)]) == 0
        entry = next(p for p in _memo_entries(tmp_path) if p.name.startswith(kind))
        if damage == "truncate":
            entry.write_bytes(entry.read_bytes()[:-9])
        elif damage == "garbage":
            entry.write_bytes(b"\x93NUMPY garbage \xff")
        elif kind == "model":
            model = np.load(entry)  # the last class's centroid is damaged
            centroid = model[-1]
            if damage == "NaN":
                centroid[0, 0] = np.nan
            elif damage == "asymmetric":
                centroid[0, 1] += np.abs(centroid).max()
            elif damage == "below the floor":  # positive definite, but no logarithm
                w, v = np.linalg.eigh(centroid)
                centroid[...] = (v * np.r_[1e-13 * w[-1], w[1:]]) @ v.T
            elif damage == "negative definite":
                centroid[...] = -np.eye(len(centroid))
            elif damage == "single precision":  # the right shape, rounded
                model = model.astype("<f4")
            np.save(entry, np.eye(3) if damage == "wrong shape" else model)
        else:
            trace = spdgeom.trace_from_json(entry.read_text())
            first, second, *rest = trace.removal_order
            entry.write_text(spdgeom.trace_to_json({
                "wrong shape": replace(trace, final_subset=trace.final_subset[1:]),
                "channel out of range": replace(trace, final_subset=(1, 99)),
                "channel kept twice": replace(trace, final_subset=(1, 1)),
                "fractional channel": replace(trace, removal_order=(
                    replace(first, removed=first.removed + 0.9), second, *rest)),
                "NaN distance": replace(trace, removal_order=(
                    replace(first, distance=float("nan")), second, *rest)),
                "infinite drop": replace(trace, final_loo_drops=(
                    float("inf"), *trace.final_loo_drops[1:])),
                "iterations out of order": replace(trace, removal_order=(
                    replace(first, iteration=2), replace(second, iteration=1), *rest)),
                "another problem": replace(trace, final_subset=(0, 1), removal_order=(
                    replace(first, removed=2), replace(second, removed=3))),
            }[damage]))
        damaged = entry.read_bytes()
        capsys.readouterr()
        assert main(["train-eval", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["failed_subjects"] == ["S002"]
        reason = json.loads(captured.err.splitlines()[-1])["failed"]["S002"]
        assert reason.startswith(f"ValueError: {entry}: ")
        if damage in ("negative definite", "below the floor"):
            assert reason.startswith(f"ValueError: {entry}: SingularMatrixError: centroid 1 is "
                                     "singular: ")
        if damage == "single precision":
            assert reason == (f"ValueError: {entry}: ValueError: model is <f4 {model.shape}, "
                              f"expected <f8 {model.shape}")
        if damage == "another problem":  # a valid trace that reduces 4 channels to 2
            assert reason == f"ValueError: {entry}: ValueError: trace reduces 4 channels to 2, " \
                             "not 6 to 2"
        assert entry.read_bytes() == damaged  # never silently recomputed
        rows = json.loads((tmp_path / "out" / "rows.json").read_text())
        assert [r["subject"] for r in rows] == [1]

    def test_entries_of_an_older_memo_version_are_not_read(self, workspace, monkeypatch):
        tmp_path, cfg = workspace
        assert main(["prepare", "--config", str(cfg)]) == 0
        with monkeypatch.context() as old:
            old.setattr(cli, "MEMO_VERSION", 1)
            assert main(["train-eval", "--config", str(cfg)]) == 0
        assert cli.MEMO_VERSION != 1
        stored = _memo_entries(tmp_path)
        calls = []
        frechet_mean = spdgeom.frechet_mean
        monkeypatch.setattr(spdgeom, "frechet_mean",
                            lambda mats, **kw: calls.append(1) or frechet_mean(mats, **kw))
        assert main(["train-eval", "--config", str(cfg)]) == 0
        assert len(calls) == 4  # 2 subjects x 2 classes
        assert set(stored) < set(_memo_entries(tmp_path))

    def test_prepare_clears_memo(self, workspace):
        tmp_path, cfg = workspace
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert main(["train-eval", "--config", str(cfg)]) == 0
        assert len(_memo_entries(tmp_path)) == 1  # the all64 model
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert not (tmp_path / "cache" / "S002" / "derived").exists()

    @pytest.mark.parametrize("edit, n_means", [
        ({"shrinkage": 0.1}, 8),  # 2 subjects x 2 classes, on 6 and on 2 channels
        ({"seed": 8}, 8),
        ({"target_k": 3}, 4),  # same covariances: only the 3-channel means are new
    ])
    def test_other_inputs_miss_the_memo(self, workspace, monkeypatch, edit, n_means):
        tmp_path, _ = workspace
        cfg = write_config(tmp_path / "feat.cfg", channel_config="feat21", target_k=2)
        other = write_config(tmp_path / "other.cfg", **{"channel_config": "feat21",
                                                         "target_k": 2, **edit})
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert main(["train-eval", "--config", str(other), "--output-dir",
                     str(tmp_path / "fresh")]) == 0
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert main(["train-eval", "--config", str(cfg)]) == 0
        calls = []
        frechet_mean = spdgeom.frechet_mean
        monkeypatch.setattr(spdgeom, "frechet_mean",
                            lambda mats, **kw: calls.append(1) or frechet_mean(mats, **kw))
        assert main(["train-eval", "--config", str(other), "--output-dir",
                     str(tmp_path / "after")]) == 0
        assert len(calls) == n_means
        after, fresh = _tree(tmp_path / "after"), _tree(tmp_path / "fresh")
        assert after == fresh
        # the elimination traces depend on shrinkage, split and target_k
        assert after["trace_S001.json"] != (tmp_path / "out" / "trace_S001.json").read_bytes()


class TestEmdCommand:
    def test_model_name_with_comma_stays_one_field(self, tmp_path, layout):
        montage.save_spatial_map(relevance.mi_baseline(layout), tmp_path / "m.csv")
        cfg = write_config(tmp_path / "exp.cfg")
        assert main(["emd", "--config", str(cfg), "--maps", f"a,b={tmp_path/'m.csv'}",
                     f"c={tmp_path/'m.csv'}"]) == 0
        with open(tmp_path / "out" / "emd_table.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["model", "rank", "emd_binary", "emd_weighted"],
                        ["a,b", "1", "0.0", ""], ["c", "2", "0.0", ""]]

    def test_baseline_vs_itself_is_zero(self, tmp_path, layout):
        base = relevance.mi_baseline(layout)
        montage.save_spatial_map(base, tmp_path / "m.csv")
        cfg = write_config(tmp_path / "exp.cfg")
        assert main(["emd", "--config", str(cfg),
                     "--maps", f"self={tmp_path/'m.csv'}"]) == 0
        table = json.loads((tmp_path / "out" / "emd_table.json").read_text())
        assert table[0]["emd_binary"] == 0.0

    def test_shifted_map_distance(self, tmp_path, layout):
        base = relevance.mi_baseline(layout)
        shifted = montage.SpatialMap(11, np.roll(base.mass, -1, axis=0))
        montage.save_spatial_map(shifted, tmp_path / "m.csv")
        cfg = write_config(tmp_path / "exp.cfg")
        assert main(["emd", "--config", str(cfg),
                     "--maps", f"up={tmp_path/'m.csv'}"]) == 0
        table = json.loads((tmp_path / "out" / "emd_table.json").read_text())
        assert abs(table[0]["emd_binary"] - 21.0) < 1e-9

    def test_cohort_reports_binary_and_weighted(self, tmp_path, layout):
        counts = {c: 14 for c in relevance.MI_BASELINE_CHANNELS}
        doc = {"model": "m", "subjects": ["S001"], "selections": {},
               "counts": counts}
        (tmp_path / "cohort.json").write_text(json.dumps(doc))
        cfg = write_config(tmp_path / "exp.cfg", target_k=21)
        assert main(["emd", "--config", str(cfg),
                     "--cohorts", f"m={tmp_path/'cohort.json'}"]) == 0
        table = json.loads((tmp_path / "out" / "emd_table.json").read_text())
        assert table[0]["emd_binary"] == 0.0
        assert table[0]["emd_weighted"] == 0.0

    @pytest.mark.parametrize("text", [
        "{", "[1, 2]", '{"model": "m"}', '{"counts": [1]}', '{"counts": {"XX": 1}}',
        '{"counts": {"C3": 2.7, "C4": 1}}', '{"counts": {"C3": "2"}}',
        '{"counts": {"C3": true}}', '{"counts": {"C3": 1e400}}',
        '{"counts": {}}', '{"counts": {"C3": 0}}', '{"counts": {"C3": 2, "c3": 1, "C4": 3}}',
        pytest.param('{"counts": {"C3": 1%s}}' % ("0" * 400), id="int-too-large-for-float"),
    ])
    def test_bad_cohort_file_named_in_error(self, tmp_path, capsys, text):
        bad = tmp_path / "cohort.json"
        bad.write_text(text)
        cfg = write_config(tmp_path / "exp.cfg")
        assert main(["emd", "--config", str(cfg), "--cohorts", f"m={bad}"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and err["message"].startswith(f"{bad}: ")

    @pytest.mark.parametrize("maps, cohorts", [(2, 0), (0, 2), (1, 1)],
                             ids=["maps", "cohorts", "both"])
    def test_model_named_twice_rejected(self, tmp_path, layout, capsys, maps, cohorts):
        montage.save_spatial_map(relevance.mi_baseline(layout), tmp_path / "m.csv")
        (tmp_path / "c.json").write_text(json.dumps({"counts": {"C3": 1}}))
        cfg = write_config(tmp_path / "exp.cfg")
        args = ["emd", "--config", str(cfg)]
        if maps:
            args += ["--maps", f"other={tmp_path / 'm.csv'}"] + [f"a={tmp_path / 'm.csv'}"] * maps
        if cohorts:
            args += ["--cohorts"] + [f"a={tmp_path / 'c.json'}"] * cohorts
        assert main(args) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and "model 'a' is given twice" in err["message"]
        assert not (tmp_path / "out" / "emd_table.csv").exists()

    def test_cohort_names_resolve_to_montage_electrodes(self, tmp_path):
        tables = []
        for i, counts in enumerate(({"C3": 2, "C4": 3}, {"c3.": 2, " C4": 3})):
            (tmp_path / f"c{i}.json").write_text(json.dumps({"counts": counts}))
            cfg = write_config(tmp_path / "exp.cfg", output_dir=str(tmp_path / f"out{i}"))
            assert main(["emd", "--config", str(cfg),
                         "--cohorts", f"m={tmp_path / f'c{i}.json'}"]) == 0
            tables.append(json.loads((tmp_path / f"out{i}" / "emd_table.json").read_text()))
        assert tables[0] == tables[1]

    def test_cohort_binary_map_ranks_only_selected_channels(self, layout):
        binary, weighted = cli._cohort_maps({"C3": 0, "C4": 3}, layout, 21)
        assert binary.total == 1.0
        assert binary.mass[layout.position("C4")] == 1.0
        assert weighted.total == 3.0
        assert weighted.mass[layout.position("C4")] == 3.0

    def test_top_k_and_cohort_maps_break_ties_alike(self, tmp_path, layout):
        # Fz leads; F8, C3, CP3 and O1 tie for the last two of three places,
        # which go to the lower montage positions, F8 and C3 (not the first
        # in file order, O1 and CP3, nor in name order, C3 and CP3)
        scores = dict.fromkeys(reversed(layout.names), 1)
        scores.update({"Fz": 5, "F8": 3, "C3": 3, "CP3": 3, "O1": 3})
        spelled = {("c3." if n == "C3" else n): v for n, v in scores.items()}
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps({"channels": list(spelled),
                                   "pooled": [float(v) for v in spelled.values()]}))
        top = relevance.top_k(relevance.ingest_external(rel, layout), 3)
        assert top == {"Fz", "F8", "C3"}
        binary, _ = cli._cohort_maps(spelled, layout, 3)
        assert np.array_equal(binary.mass, montage.binary_map(top, layout).mass)
        (tmp_path / "cohort.json").write_text(json.dumps({"counts": spelled}))
        montage.save_spatial_map(montage.binary_map(top, layout), tmp_path / "top.csv")
        cfg = write_config(tmp_path / "exp.cfg")
        assert main(["emd", "--config", str(cfg), "--maps", f"top={tmp_path / 'top.csv'}",
                     "--cohorts", f"cohort={tmp_path / 'cohort.json'}"]) == 0
        table = json.loads((tmp_path / "out" / "emd_table.json").read_text())
        assert len({row["emd_binary"] for row in table}) == 1

    def test_models_ordered_by_distance(self, tmp_path, layout):
        base = relevance.mi_baseline(layout)
        montage.save_spatial_map(base, tmp_path / "near.csv")
        far = montage.SpatialMap(11, np.roll(base.mass, 2, axis=0))
        montage.save_spatial_map(far, tmp_path / "far.csv")
        cfg = write_config(tmp_path / "exp.cfg")
        assert main(["emd", "--config", str(cfg),
                     "--maps", f"far={tmp_path/'far.csv'}",
                     f"near={tmp_path/'near.csv'}"]) == 0
        table = json.loads((tmp_path / "out" / "emd_table.json").read_text())
        assert [r["model"] for r in table] == ["near", "far"]
        assert [r["rank"] for r in table] == [1, 2]

    def test_no_maps_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.cfg")
        assert main(["emd", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "no model maps" in err["message"]

    @pytest.mark.parametrize("flag", ["--maps", "--cohorts"])
    def test_model_without_a_name_rejected(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path / "exp.cfg")
        assert main(["emd", "--config", str(cfg), flag, "m.csv"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": "expected NAME=PATH, got 'm.csv'"}


class TestPlotCommand:
    def test_marker_per_electrode(self, tmp_path, layout):
        base = relevance.mi_baseline(layout)
        montage.save_spatial_map(base, tmp_path / "m.csv")
        out = tmp_path / "m.svg"
        assert main(["plot", "--map", str(tmp_path / "m.csv"),
                     "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<circle") == 64
        assert svg.count('class="active"') == 21
        ElementTree.fromstring(svg)  # well-formed XML

    def test_zero_map_has_no_active_markers(self, tmp_path):
        montage.save_spatial_map(
            montage.SpatialMap(11, np.zeros((11, 11))), tmp_path / "z.csv"
        )
        out = tmp_path / "z.svg"
        assert main(["plot", "--map", str(tmp_path / "z.csv"),
                     "--out", str(out)]) == 0
        assert 'class="active"' not in out.read_text()

    def test_identical_inputs_identical_bytes(self, tmp_path, layout):
        base = relevance.mi_baseline(layout)
        montage.save_spatial_map(base, tmp_path / "m.csv")
        for name in ("a.svg", "b.svg"):
            assert main(["plot", "--map", str(tmp_path / "m.csv"),
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_electrode_names_are_escaped(self):
        layout = montage.GridLayout(2, (montage.Electrode("A&B", 0, 0),
                                        montage.Electrode("C<D", 1, 1)))
        svg = render_map_svg(montage.SpatialMap(2, np.eye(2)), layout)
        texts = ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")
        assert [t.text for t in texts] == ["A&B", "C<D"]

    def test_render_rejects_mismatched_grid(self, layout):
        small = montage.SpatialMap(3, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="does not match layout"):
            render_map_svg(small, layout)


from published import MDM_TABLE


def write_fixture_rows(path: Path) -> Path:
    header = "subject,channel_config,chance,overall,recall_Left,recall_Right"
    lines = [header]
    for sid, chance, all64, mi21, feat21 in MDM_TABLE:
        for config, (ov, lf, rt) in [("all64", all64), ("mi21", mi21), ("feat21", feat21)]:
            lines.append(
                f"{sid},{config},{chance/100},{ov/100},{lf/100},{rt/100}"
            )
    path.write_text("\n".join(lines) + "\n")
    return path


#: Text for a rows.csv cell, commas and quotes included.  Config values
#: hold no line breaks (parse_config_text splits on them), and neither do
#: the other row values.
_CSV_CELL = st.text(st.sampled_from(',"') | st.characters(
    blacklist_categories=("Cs",),
    blacklist_characters="\x00\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))


class TestReportCommand:
    def test_published_fixture_footer(self, tmp_path):
        rows = write_fixture_rows(tmp_path / "rows.csv")
        cfg = write_config(tmp_path / "exp.cfg")
        assert main(["report", "--config", str(cfg), "--rows", str(rows)]) == 0
        table = (tmp_path / "out" / "table.csv").read_text().splitlines()
        footer = table[-1].split(",")
        header = table[0].split(",")
        assert footer[header.index("all64_overall")] == "73.63±4.26"
        assert footer[header.index("mi21_overall")] == "69.64±7.35"
        assert footer[header.index("feat21_overall")] == "68.56±5.69"
        assert footer[header.index("chance")] == "58.14±0.94"

    def test_non_finite_accuracy_rejected_naming_its_column(self, tmp_path, capsys):
        rows = write_fixture_rows(tmp_path / "rows.csv")
        lines = rows.read_text().splitlines()
        cells = lines[1].split(",")
        cells[3] = "nan"  # first subject's all64 overall
        lines[1] = ",".join(cells)
        rows.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "exp.cfg")
        assert main(["report", "--config", str(cfg), "--rows", str(rows)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == f"{rows}: ValueError: overall must be in [0, 1], got nan"

    @pytest.mark.parametrize("damage", ["cut inside a number", "extra field"])
    def test_row_of_other_field_count_rejected(self, workspace, capsys, damage):
        tmp_path, cfg = workspace
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert main(["train-eval", "--config", str(cfg)]) == 0
        rows = tmp_path / "out" / "rows.csv"
        header, *lines = rows.read_text().splitlines()
        n_fields = len(header.split(","))
        if damage == "extra field":
            rows.write_text("\n".join([header, *lines]) + ",0.5\n")
            fields = n_fields + 1
        else:  # the file ends two characters into the last row's overall accuracy
            cut = lines[-1].split(",")[:header.split(",").index("overall") + 1]
            cut[-1] = cut[-1][:2]
            rows.write_text("\n".join([header, *lines[:-1], ",".join(cut)]))
            fields = len(cut)
        capsys.readouterr()
        assert main(["report", "--config", str(cfg), "--rows", str(rows)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == (f"{rows}: ValueError: row {len(lines)} has {fields} fields, "
                                  f"header has {n_fields}")

    def test_pvalue_matrix_shape(self, tmp_path):
        rows = write_fixture_rows(tmp_path / "rows.csv")
        cfg = write_config(tmp_path / "exp.cfg")
        assert main(["report", "--config", str(cfg), "--rows", str(rows)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        p = report["pvalues"]
        for c in ("all64", "mi21", "feat21"):
            assert p[c][c] == 1.0
        for c1 in p:
            for c2 in p:
                assert abs(p[c1][c2] - p[c2][c1]) < 1e-12
        assert abs(p["all64"]["mi21"] - 0.0279) <= 0.003
        assert abs(p["all64"]["feat21"] - 0.0014) <= 0.003

    def test_each_pair_is_tested_once(self, tmp_path, monkeypatch):
        # the test is symmetric bit for bit, so the lower triangle mirrors the upper
        rows = write_fixture_rows(tmp_path / "rows.csv")
        calls, wilcoxon = [], stats.wilcoxon_signed_rank
        monkeypatch.setattr(stats, "wilcoxon_signed_rank",
                            lambda x, y: calls.append((x, y)) or wilcoxon(x, y))
        assert main(["report", "--config", str(write_config(tmp_path / "exp.cfg")),
                     "--rows", str(rows)]) == 0
        assert len(calls) == 3
        p = json.loads((tmp_path / "out" / "report.json").read_text())["pvalues"]
        for x, y in calls:
            assert wilcoxon(y, x).p_value == wilcoxon(x, y).p_value
        assert p["mi21"]["all64"] == p["all64"]["mi21"] != p["feat21"]["all64"]

    def test_column_that_no_row_fills_is_left_empty(self, tmp_path):
        # the two configurations were scored on other class names, so each
        # recall column holds one configuration's rows only
        header = "subject,channel_config,chance,overall,recall_{},recall_{}\n"
        (tmp_path / "a.csv").write_text(header.format("Left", "Right") + "1,all64,0.5,0.9,1,0.8\n")
        (tmp_path / "b.csv").write_text(header.format("Down", "Up") + "1,mi21,0.5,0.7,0.6,0.8\n")
        cfg = write_config(tmp_path / "exp.cfg")
        assert main(["report", "--config", str(cfg), "--rows", str(tmp_path / "a.csv"),
                     str(tmp_path / "b.csv")]) == 0
        header, row, footer = (tmp_path / "out" / "table.csv").read_text().splitlines()
        assert header == ("ID,chance,all64_overall,all64_Down,all64_Left,all64_Right,all64_Up,"
                          "mi21_overall,mi21_Down,mi21_Left,mi21_Right,mi21_Up")
        assert row == "1,50.00,90.00,,100.00,80.00,,70.00,60.00,,,80.00"
        assert footer.split(",")[1:] == ["50.00±0.00", "90.00±0.00", "", "100.00±0.00",
                                         "80.00±0.00", "", "70.00±0.00", "60.00±0.00", "", "",
                                         "80.00±0.00"]
        summary = json.loads((tmp_path / "out" / "report.json").read_text())["summary"]
        assert sorted(summary) == ["all64_Left", "all64_Right", "all64_overall", "chance",
                                   "mi21_Down", "mi21_Up", "mi21_overall"]

    def test_single_row_footer_sd_zero(self, tmp_path):
        p = tmp_path / "rows.csv"
        p.write_text(
            "subject,channel_config,chance,overall,recall_Left,recall_Right\n"
            "1,all64,0.5,0.9,0.9,0.9\n"
        )
        cfg = write_config(tmp_path / "exp.cfg")
        assert main(["report", "--config", str(cfg), "--rows", str(p)]) == 0
        footer = (tmp_path / "out" / "table.csv").read_text().splitlines()[-1]
        assert "90.00±0.00" in footer

    @pytest.mark.parametrize("text", [
        "subject,channel_config,chance,overall\n99,all32,0.5,0.9\n",  # unknown config only
        "subject,channel_config,overall\n99,all64,0.9\n",  # no chance column
        "subject,channel_config,chance,overall\n99,all64,,0.9\n",  # empty chance
        "subject,channel_config,chance,overall\nS1,all64,0.5,0.9\n",  # non-integer subject
        "subject,channel_config,chance,overall\n99,all64,0.5,\n",  # empty overall
        "subject,channel_config,chance,overall\n99,all64,0.5,nan\n",
        "subject,channel_config,chance,overall\n99,all64,inf,0.9\n",
        "subject,channel_config,chance,overall\n99,all64,0.5,5\n",  # a percentage
        "subject,channel_config,chance,overall,recall_Left\n99,all64,0.5,0.9,-0.1\n",
        pytest.param("subject,channel_config,chance,overall\n99,all64,0.5,0.%s\n"
                     % ("9" * 131072), id="field over the csv limit"),
    ])
    def test_bad_rows_file_named_in_error(self, tmp_path, capsys, text):
        good = write_fixture_rows(tmp_path / "good.csv")
        bad = tmp_path / "rows.csv"
        bad.write_text(text)
        cfg = write_config(tmp_path / "exp.cfg")
        assert main(["report", "--config", str(cfg), "--rows", str(good), str(bad)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and err["message"].startswith(f"{bad}: ")

    def test_repeated_row_in_one_file_named_in_error(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text("subject,channel_config,chance,overall\n"
                        "1,all64,0.5,0.6\n2,all64,0.5,0.7\n1,all64,0.5,0.9\n")
        cfg = write_config(tmp_path / "exp.cfg")
        assert main(["report", "--config", str(cfg), "--rows", str(rows)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and err["message"].startswith(f"{rows}: ")

    def test_repeated_row_across_files_named_in_error(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("subject,channel_config,chance,overall\n1,all64,0.5,0.6\n")
        b.write_text("subject,channel_config,chance,overall\n1,mi21,0.5,0.7\n"
                     "1,all64,0.5,0.9\n")
        cfg = write_config(tmp_path / "exp.cfg")
        assert main(["report", "--config", str(cfg), "--rows", str(a), str(b)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and err["message"].startswith(f"{b}: ")

    def test_no_rows_rejected(self, tmp_path, capsys):
        p = tmp_path / "rows.csv"
        p.write_text("")
        cfg = write_config(tmp_path / "exp.cfg")
        assert main(["report", "--config", str(cfg), "--rows", str(p)]) == 1

    @pytest.fixture(params=["riemannian", "external:a,b"])
    def train_eval_rows(self, request, tmp_path) -> Path:
        """The published table as ``rows.csv`` written by ``train-eval``'s writer."""
        rows = [
            {"subject": sid, "channel_config": config, "relevance_source": request.param,
             "n_channels": 21, "n_train": 36, "n_test": 10, "chance": chance / 100,
             "overall": ov / 100, "overall_macro": (lf + rt) / 200,
             "recall_Left": lf / 100, "support_Left": 5,
             "recall_Right": rt / 100, "support_Right": 5}
            for sid, chance, *accs in MDM_TABLE
            for config, (ov, lf, rt) in zip(cli.CHANNEL_CONFIGS, accs)
        ]
        (tmp_path / "te").mkdir()
        cli._write_rows(tmp_path / "te", rows)
        return tmp_path / "te" / "rows.csv"

    def test_train_eval_rows_give_published_table(self, tmp_path, train_eval_rows):
        cfg = write_config(tmp_path / "exp.cfg")
        fixture = write_fixture_rows(tmp_path / "fixture.csv")
        assert main(["report", "--config", str(cfg), "--rows", str(train_eval_rows)]) == 0
        assert main(["report", "--config", str(cfg), "--rows", str(fixture),
                     "--output-dir", str(tmp_path / "ref")]) == 0
        table = (tmp_path / "out" / "table.csv").read_text()
        footer = table.splitlines()[-1].split(",")
        assert footer[1] == "58.14±0.94"  # chance
        assert table == (tmp_path / "ref" / "table.csv").read_text()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_CSV_CELL, min_size=1, max_size=4, unique=True).flatmap(
        lambda cols: st.lists(st.fixed_dictionaries({c: _CSV_CELL for c in cols}),
                              min_size=1, max_size=4)))
    def test_rows_csv_round_trip(self, tmp_path_factory, rows):
        out = tmp_path_factory.mktemp("rows")
        cli._write_rows(out, rows)
        assert cli._read_rows_csv(out / "rows.csv") == rows


class TestCohortFileContract:
    """A cohort-level input file that cannot be read or parsed makes its
    command exit 1 with a ``ValueError`` that starts with the file's path."""

    #: file kind: its command line and one garbled line; ``{bad}`` is the file
    KINDS = {
        "config": ("train-eval --config {bad}", "seed"),
        "layout": ("plot --config {layout_cfg} --map {good} --out {tmp}/m.svg", "C3,1"),
        "rows": ("report --config {cfg} --rows {bad}", "subject,channel_config,chance\n1,all64"),
        "cohort": ("emd --config {cfg} --cohorts m={bad}", "{"),
        "map": ("emd --config {cfg} --maps m={bad}", "1,x"),
        "baseline map": ("emd --config {cfg} --baseline-map {bad} --maps m={good}", "1,x"),
        "plot map": ("plot --config {cfg} --map {bad} --out {tmp}/m.svg", "1,x"),
    }

    @pytest.mark.parametrize("damage", ["directory", "bytes", "garbled line"])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_damaged_file_named_in_error(self, tmp_path, layout, capsys, kind, damage):
        command, line = self.KINDS[kind]
        bad, good = tmp_path / "bad", tmp_path / "good.csv"
        if damage == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe" if damage == "bytes" else f"{line}\n".encode())
        montage.save_spatial_map(relevance.mi_baseline(layout), good)
        argv = command.format(bad=bad, good=good, tmp=tmp_path,
                              cfg=write_config(tmp_path / "exp.cfg"),
                              layout_cfg=write_config(tmp_path / "layout.cfg", layout=bad))
        assert main(argv.split()) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and err["message"].startswith(f"{bad}: ")


#: One value of each JSON kind, as ``json.loads`` gives it.
JSON_VALUES = [{}, [], "x", 3, 0.5, True, None]
#: The damage that gives an object's key twice, with its value both times.
REPEATED = object()


def _json_kind(value) -> str:
    return {dict: "object", list: "array", str: "string", int: "integer", float: "number",
            bool: "boolean", type(None): "null"}[type(value)]


def _json_paths(doc, path: tuple = ()):
    """The path (keys and indexes) to `doc` and to every value inside it,
    an array's first element standing for all (they share one rule)."""
    yield path
    for key, value in (doc.items() if type(doc) is dict else
                       enumerate(doc[:1]) if type(doc) is list else ()):
        yield from _json_paths(value, (*path, key))


def _json_damages(doc, keep: tuple) -> list[tuple[tuple, object]]:
    """Every ``(path, value)`` that puts a value of another JSON kind at a
    path of `doc`, or, with ``value`` the ``...`` marker, drops an object key,
    or, with `REPEATED`, gives it twice.  Left out as still valid: an integer
    for a number, and dropping a key of an object at a path in `keep`, whose
    keys are data, not fields."""
    damages = []
    for path in _json_paths(doc):
        value = _json_at(doc, path)
        damages += [(path, new) for new in JSON_VALUES if _json_kind(new) not in (
            _json_kind(value), "integer" if type(value) is float else None)]
        if path and type(_json_at(doc, path[:-1])) is dict:
            damages.append((path, REPEATED))
            if path[:-1] not in keep:
                damages.append((path, ...))
    return damages


def _json_at(doc, path: tuple):
    for key in path:
        doc = doc[key]
    return doc


def _damaged(doc, path: tuple, value) -> str:
    """The JSON text of `doc` with `value` at `path`, the key dropped or,
    for `REPEATED`, the key given twice."""
    if not path:
        return json.dumps(value)
    doc = json.loads(json.dumps(doc))
    parent, key = _json_at(doc, path[:-1]), path[-1]
    if value is ...:
        del parent[key]
    elif value is REPEATED:  # a marker key, renamed to `key` in the text
        parent["\0repeated"] = parent[key]
        return json.dumps(doc).replace(json.dumps("\0repeated"), json.dumps(key))
    else:
        parent[key] = value
    return json.dumps(doc)


class TestJsonDamage:
    """Each JSON document a command reads, given a value of another JSON type,
    without a field or with a key twice: a per-subject file fails its subject
    alone, naming the file; a cohort file fails the command, naming the file;
    and the library call that reads it raises a ``ValueError``."""

    @pytest.fixture(scope="class")
    def chain(self, tmp_path_factory):
        """The root of a prepared two-subject cohort after one clean run of
        each command and, per file kind: its path, its document, the paths of
        the objects in it whose keys are data, its command, S001's clean row
        and the library call that reads it."""
        root = tmp_path_factory.mktemp("json_damage")
        build_dataset(root / "data", [1, 2], [3, 4], CHANNELS_6, np.random.default_rng(3))
        layout = montage.default_layout()
        rel = {"channels": ["FC5", "C3", "C4", "Cz", "Fp1", "Oz"],
               "pooled": [0.1, 0.9, 0.8, 0.7, 0.5, 0.2],
               "per_class": {"Left": [0.5, 0.25, 0.75, 0.5, 0.5, 0.5],
                             "Right": [0.5, 0.75, 0.25, 0.5, 0.5, 0.5]}}
        for subject in (1, 2):
            (root / f"rel_{subject:03d}.json").write_text(json.dumps(rel))
        argv = {name: ["train-eval", "--config", str(write_config(root / f"{name}.cfg", **edit))]
                for name, edit in [
                    ("index", {}), ("trace", {"channel_config": "feat21", "target_k": 2}),
                    ("relevance", {"channel_config": "feat21", "relevance_source": "external:x",
                                   "relevance_pattern": "rel_{subject:03d}.json"})]}
        assert main(["prepare", "--config", argv["index"][2]]) == 0
        clean = {}
        for name, args in argv.items():
            assert main(args) == 0
            clean[name] = json.loads((root / "out" / "rows.json").read_text())[0]
        derived = root / "cache" / "S002" / "derived"
        trace = next(derived.glob("trace-*.json"))
        cohort = root / "cohort.json"
        counts = json.loads((root / "out" / "cohort_x.json").read_text())["counts"]
        cohort.write_text(json.dumps({"counts": counts}))
        argv["cohort"] = ["emd", "--config", argv["index"][2], "--cohorts", f"m={cohort}"]
        files = {"index": (root / "cache" / "S002" / "index.json", (),
                           lambda: cli.read_epoch_cache(root / "cache", 2)),
                 "trace": (trace, (), lambda: spdgeom.trace_from_json(trace.read_text())),
                 "relevance": (root / "rel_002.json", (("per_class",),), lambda: (
                     relevance.ingest_external(root / "rel_002.json", layout))),
                 "cohort": (cohort, (("counts",),), None)}
        return root, {name: (path, json.loads(path.read_text()), keep, argv[name],
                             clean.get(name), call) for name, (path, keep, call) in files.items()}

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_damaged_value_fails_by_path(self, chain, data):
        root, files = chain
        name = data.draw(st.sampled_from(sorted(files)), label="file")
        doc, keep = files[name][1:3]
        where, value = data.draw(st.sampled_from(_json_damages(doc, keep)), label="damage")
        self._fails_by_path(root, name, files[name], _damaged(doc, where, value))

    @pytest.mark.parametrize("name", ["cohort", "index", "relevance", "trace"])
    def test_repeated_key_fails_by_path(self, chain, name):
        # each key of each object given twice, with one value, which json.loads
        # alone would take without a word
        root, files = chain
        doc, keep = files[name][1:3]
        for where, value in _json_damages(doc, keep):
            if value is REPEATED:
                message = self._fails_by_path(root, name, files[name],
                                              _damaged(doc, where, value))
                assert f"has key {where[-1]!r} twice in one object" in message

    @staticmethod
    def _fails_by_path(root: Path, name: str, file: tuple, damaged: str) -> str:
        """Put the text `damaged` in the file of `file`, of kind `name`, for
        one run of its command and of its library call; check that both
        failed, the command by the file's path, and return its message."""
        path, _, _, argv, clean, call = file
        text = path.read_text()
        path.write_text(damaged)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if call is not None:
                with pytest.raises(ValueError):
                    call()
        finally:
            path.write_text(text)
        if name == "cohort":
            assert code == 1
            error = json.loads(err.getvalue())
            assert error["error"] == "ValueError" and error["message"].startswith(f"{path}: ")
            return error["message"]
        assert code == 0 and json.loads(out.getvalue())["failed_subjects"] == ["S002"]
        reason = json.loads(err.getvalue().splitlines()[-1])["failed"]["S002"]
        # the cache check names the subject directory, which holds index.json
        assert reason.startswith(f"ValueError: {path.parent if name == 'index' else path}")
        assert json.loads((root / "out" / "rows.json").read_text()) == [clean]
        return reason


class TestErrorContract:
    @pytest.mark.parametrize("text", ["1,2,3\n", "1,x\n0,1\n", "-1\n"])
    @pytest.mark.parametrize("command", ["emd --maps m={bad}",
                                         "emd --baseline-map {bad} --maps m={good}",
                                         "plot --map {bad} --out {tmp}/m.svg"])
    def test_bad_map_file_named_in_error(self, tmp_path, layout, capsys, command, text):
        bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
        bad.write_text(text)
        montage.save_spatial_map(relevance.mi_baseline(layout), good)
        cfg = write_config(tmp_path / "exp.cfg")
        argv = command.format(bad=bad, good=good, tmp=tmp_path).split()
        assert main([*argv, "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and err["message"].startswith(f"{bad}: ")

    @pytest.mark.parametrize("command", ["emd --maps m={small}",
                                         "emd --baseline-map {small} --cohorts m={cohort}"])
    def test_emd_map_of_other_order_named_in_error(self, tmp_path, capsys, command):
        small, cohort = tmp_path / "small.csv", tmp_path / "cohort.json"
        montage.save_spatial_map(montage.SpatialMap(3, np.eye(3)), small)
        cohort.write_text(json.dumps({"counts": {"C3": 1}}))
        cfg = write_config(tmp_path / "exp.cfg")
        argv = command.format(small=small, cohort=cohort).split()
        assert main([*argv, "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == f"{small}: ValueError: grid order 3, expected 11"

    def test_plot_map_of_other_order_named_in_error(self, tmp_path, capsys):
        small = tmp_path / "small.csv"
        montage.save_spatial_map(montage.SpatialMap(3, np.eye(3)), small)
        assert main(["plot", "--map", str(small), "--out", str(tmp_path / "m.svg")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == f"{small}: ValueError: grid order 3, expected 11"

    @pytest.mark.parametrize("command, flag, value", [
        (command, flag, value) for command, kept in {
            "prepare": (), "train-eval": ("--seed", "--output-dir"),
            "select-channels": ("--seed", "--output-dir"),
            "emd": ("--metric", "--mass", "--output-dir"), "plot": (),
            "report": ("--output-dir",)}.items()
        for flag, value in (("--seed", "3"), ("--metric", "manhattan"),
                            ("--mass", "normalized"), ("--output-dir", "elsewhere"))
        if flag not in kept])
    def test_flag_the_command_does_not_read_is_rejected(self, tmp_path, capsys, command, flag,
                                                         value):
        # a flag that would change nothing is a usage error, not silently ignored
        cfg = write_config(tmp_path / "exp.cfg")
        required = {"plot": ["--map", "m.csv", "--out", "m.svg"], "report": ["--rows", "r.csv"]}
        with pytest.raises(SystemExit) as exit_:
            main([command, "--config", str(cfg), *required.get(command, []), flag, value])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_no_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.rstrip().endswith("error: the following arguments are required: "
                                              "command")

    def test_missing_config_gives_error_json(self, capsys):
        assert main(["train-eval", "--config", "/nonexistent/path.cfg"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "FileNotFoundError"

    def test_success_prints_machine_readable_summary(self, tmp_path, layout, capsys):
        base = relevance.mi_baseline(layout)
        montage.save_spatial_map(base, tmp_path / "m.csv")
        assert main(["plot", "--map", str(tmp_path / "m.csv"),
                     "--out", str(tmp_path / "m.svg")]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["out"].endswith("m.svg")
