"""Metamorphic relations of the whole command chain.

Scaling by a power of two is exact in IEEE arithmetic and the
affine-invariant metric is invariant under congruence, so neither a gain of
2^k on every sample nor the order of the channels may change what the chain
writes.  The earth mover's distance on the grid is invariant under the
grid's 8 symmetries and under swapping its two maps.  Each relation is an
oracle that needs no reference implementation (Chen et al., ACM Computing
Surveys 2018).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import emdscalp
from emdscalp import montage, relevance, transport
from emdscalp.cli import main

from helpers import make_motor_recording

#: The 21 baseline electrodes and three others, in a non-montage order.
CHANNELS = ["Oz", *relevance.MI_BASELINE_CHANNELS[::-1], "Fp1", "Pz"]
SUBJECTS = (1, 2)
RUNS = (3, 4)
TARGET_K = 5


def _recordings() -> dict[tuple[int, int], tuple[np.ndarray, list]]:
    """Each run's ``(channels, samples)`` array, of non-integer samples, and
    its annotations; C3 and C4 carry a weak class difference, so that the
    accuracies lie between chance and 1."""
    rng = np.random.default_rng(61)
    runs = {}
    for sid in SUBJECTS:
        for run in RUNS:
            rec = make_motor_recording(rng, CHANNELS, n_trials=6, discriminative=(13, 9),
                                       var_ratio=1.35)
            runs[sid, run] = (rec.data + rng.uniform(-0.5, 0.5, rec.data.shape),
                              rec.annotations)
    return runs


def _write_cohort(root: Path, runs, gain: float = 1.0, order=None) -> None:
    """Write every run as CSV, samples times `gain` written by ``repr``,
    columns in `order` (an index array into `CHANNELS`)."""
    order = np.arange(len(CHANNELS)) if order is None else order
    for (sid, run), (data, annotations) in runs.items():
        tag = f"S{sid:03d}"
        path = root / tag / f"{tag}R{run:02d}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [",".join(CHANNELS[i] for i in order)]
        lines += [",".join(repr(float(v) * gain) for v in col) for col in data[order].T]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        path.with_name(path.stem + "_annotations.csv").write_text(
            "".join(f"{a.onset},{a.duration},{a.code}\n" for a in annotations),
            encoding="utf-8")


def _config(root: Path, name: str, **keys) -> str:
    """Write ``root/<name>.cfg`` for the CSV cohort under ``root/data``, with
    outputs under ``root/out/<name>``; return its path."""
    lines = {"version": 1, "dataset_root": "data", "subjects": "1,2", "runs": "3,4",
             "input_format": "csv", "seed": 5, "test_fraction": 0.25,
             "target_k": TARGET_K, "cache_dir": "cache",
             "output_dir": f"out/{name}", **keys}
    path = root / f"{name}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return str(path)


#: The commands that share the cache after ``prepare``: (command, config name, keys).
TRAINING = [("train-eval", cc, {"channel_config": cc}) for cc in ("all64", "mi21", "feat21")]
TRAINING.append(("select-channels", "select", {}))


def _chain(root: Path) -> None:
    """prepare, train-eval for all three configs, select-channels, emd and
    report, on the CSV cohort under ``root/data``; outputs under
    ``root/out``."""
    out = root / "out"
    assert main(["prepare", "--config", _config(root, "prepare")]) == 0
    for command, name, keys in TRAINING:
        assert main([command, "--config", _config(root, name, **keys)]) == 0
    assert main(["emd", "--config", _config(root, "emd"),
                 "--cohorts", f"riemannian={out / 'feat21' / 'cohort_riemannian.json'}",
                 "--maps", f"top={out / 'feat21' / f'map_riemannian_binary_top{TARGET_K}.csv'}"
                 ]) == 0
    assert main(["report", "--config", _config(root, "report"),
                 "--rows", *(str(out / cc / "rows.csv") for cc in ("all64", "mi21", "feat21"))
                 ]) == 0


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _epochs(root: Path) -> dict[int, np.ndarray]:
    return {sid: np.load(root / "cache" / f"S{sid:03d}" / "epochs.npy") for sid in SUBJECTS}


@pytest.fixture(scope="module")
def runs():
    return _recordings()


@pytest.fixture(scope="module")
def reference(tmp_path_factory, runs) -> Path:
    root = tmp_path_factory.mktemp("reference")
    _write_cohort(root / "data", runs)
    umask = os.umask(0o022)
    try:
        _chain(root)
    finally:
        os.umask(umask)
    return root


def test_every_file_written_has_the_umask_mode(reference):
    written = [p for part in ("cache", "out") for p in (reference / part).rglob("*")
               if p.is_file()]
    assert len([p for p in written if "derived" in p.parts]) > 0
    assert {p.stat().st_mode & 0o777 for p in written} == {0o644}


def test_concurrent_commands_write_the_serial_bytes(tmp_path, runs, reference):
    # four processes share one cache and its memo, as separate runs of the
    # commands may; a file one writes is read whole by the others
    _write_cohort(tmp_path / "data", runs)
    assert main(["prepare", "--config", _config(tmp_path, "prepare")]) == 0
    src = str(Path(emdscalp.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    procs = [subprocess.Popen([sys.executable, "-m", "emdscalp.cli", command, "--config",
                               _config(tmp_path, name, **keys)],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
             for command, name, keys in TRAINING]
    errors = [proc.communicate(timeout=300)[1] for proc in procs]
    assert [proc.returncode for proc in procs] == [0] * len(procs), errors

    def shared(root: Path) -> dict[str, bytes]:
        return {k: v for k, v in _tree(root).items() if k.startswith(
            ("cache/", *(f"out/{name}/" for _, name, _ in TRAINING)))}

    assert shared(tmp_path) == shared(reference)


@pytest.mark.parametrize("k", [-40, -2, 1, 40])
def test_power_of_two_gain(tmp_path, runs, reference, k):
    _write_cohort(tmp_path / "data", runs, gain=2.0**k)
    _chain(tmp_path)
    assert _tree(tmp_path / "out") == _tree(reference / "out")
    scaled, original = _epochs(tmp_path), _epochs(reference)
    for sid in SUBJECTS:
        assert np.array_equal(scaled[sid], original[sid] * 4.0**k)


def test_channel_order(tmp_path, runs, reference):
    order = np.random.default_rng(8).permutation(len(CHANNELS))
    _write_cohort(tmp_path / "data", runs, order=order)
    _chain(tmp_path)
    permuted, original = _tree(tmp_path / "out"), _tree(reference / "out")
    assert permuted.keys() == original.keys()
    traces = [name for name in original if Path(name).name.startswith("trace_")]
    assert len(traces) == 2 * len(SUBJECTS)
    for name in original.keys() - traces:
        assert permuted[name] == original[name], name
    permuted_names = [CHANNELS[i] for i in order]
    for name in traces:
        got, want = json.loads(permuted[name]), json.loads(original[name])
        assert ([permuted_names[s["removed"]] for s in got["removal_order"]]
                == [CHANNELS[s["removed"]] for s in want["removal_order"]])
        for g, w in zip(got["removal_order"], want["removal_order"]):
            assert g["distance"] == pytest.approx(w["distance"], rel=1e-12, abs=0)
        drops = {permuted_names[c]: d
                 for c, d in zip(got["final_subset"], got["final_loo_drops"])}
        assert drops.keys() == {CHANNELS[c] for c in want["final_subset"]}
        scale = max(s["distance"] for s in want["removal_order"])
        for c, d in zip(want["final_subset"], want["final_loo_drops"]):
            assert abs(drops[CHANNELS[c]] - d) <= 1e-12 * scale


def _symmetries(mass: np.ndarray) -> list[np.ndarray]:
    """The 8 images of `mass` under the symmetries of the square."""
    rotations = [np.rot90(mass, r) for r in range(4)]
    return rotations + [m.T for m in rotations]


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_emd_grid_symmetries_and_swap(reference, layout, metric):
    out = reference / "out" / "feat21"
    base = relevance.mi_baseline(layout)
    maps = [montage.load_spatial_map(out / f"map_riemannian_binary_top{TARGET_K}.csv"),
            montage.load_spatial_map(out / "map_riemannian_weighted_counts.csv")]
    for smap in maps:
        p, q = transport.rebalance(smap, base, 21.0)
        want = transport.emd(p, q, metric=metric).distance
        assert want > 0
        for mp, mq in zip(_symmetries(p.mass), _symmetries(q.mass)):
            for a, b in ((mp, mq), (mq, mp)):
                got = transport.emd(montage.SpatialMap(p.n, a), montage.SpatialMap(q.n, b),
                                    metric=metric).distance
                assert abs(got - want) <= 1e-12 * want
