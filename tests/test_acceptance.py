"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one pass line when it holds.

Criterion 10 needs the real 64-channel dataset on disk and is skipped unless
EMDSCALP_PHYSIONET points at its root directory.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emdscalp import montage, relevance, spdgeom, stats, transport
from emdscalp.cli import main
from emdscalp.montage import SpatialMap
from emdscalp.signal import Recording, bandpass, epoch_trials
from emdscalp.transport import emd

import published
from helpers import (
    assignment_emd,
    lp_emd,
    make_motor_recording,
    make_spd_dataset,
    rand_spd,
    random_integer_map_pair,
    random_map_pair,
    recording_to_edf,
)
from test_cli import CHANNELS_6, build_dataset, write_config


def note(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_01_emd_oracle_equivalence(rng, layout):
    start = time.monotonic()
    n_pairs = 220
    worst = 0.0
    for i in range(n_pairs):
        n = int(rng.integers(2, 7))  # grids up to 6x6
        p, q = random_map_pair(rng, n)
        got = emd(p, q).distance
        want = lp_emd(p, q)
        rel = abs(got - want) / max(abs(want), 1e-12)
        worst = max(worst, rel)
        assert_allclose(got, want, rtol=1e-9, atol=1e-12)
    # emd solves by a numpy transportation simplex, so the LP oracle (HiGHS
    # on the full flow polytope) is independent of it, and so is the
    # assignment oracle: integer-mass pairs on grids up to 6x6, then the
    # paper's case, binary top-21 maps against the 21-channel baseline on the
    # packaged layout.
    pairs = [random_integer_map_pair(rng, int(rng.integers(2, 7))) for _ in range(n_pairs)]
    base = relevance.mi_baseline(layout)
    names = [e.name for e in layout.electrodes]
    for _ in range(30):
        top = montage.binary_map(set(rng.choice(names, 21, replace=False)), layout)
        pairs.append((top, base))
    worst_assignment = 0.0
    for p, q in pairs:
        got = emd(p, q).distance
        want = assignment_emd(p, q)
        worst_assignment = max(worst_assignment, abs(got - want) / max(abs(want), 1e-12))
        assert_allclose(got, want, rtol=1e-9, atol=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    note(1, f"{n_pairs} random pairs match the LP oracle (worst rel err "
            f"{worst:.2e}); {len(pairs)} integer-mass pairs match the assignment "
            f"oracle (worst rel err {worst_assignment:.2e}, {elapsed:.1f}s)")


def test_criterion_02_emd_metric_axioms(rng):
    # identity
    for _ in range(10):
        m = SpatialMap(5, rng.random((5, 5)) + 0.01)
        assert emd(m, m).distance <= 1e-12 * 5 * np.sqrt(2)
    # symmetry, triangle, homogeneity, marginals
    for _ in range(60):
        p, q = random_map_pair(rng, 5)
        d_pq = emd(p, q)
        d_qp = emd(q, p).distance
        assert abs(d_pq.distance - d_qp) <= 1e-9 * max(d_pq.distance, 1e-12)
        r = SpatialMap(5, random_map_pair(rng, 5)[0].mass)
        r = SpatialMap(5, r.mass * (p.total / r.total))
        assert emd(p, r).distance <= d_pq.distance + emd(q, r).distance + 1e-9
        c = float(rng.random() * 5 + 0.2)
        scaled = emd(SpatialMap(5, c * p.mass), SpatialMap(5, c * q.mass)).distance
        assert_allclose(scaled, c * d_pq.distance, rtol=1e-9, atol=1e-12)
        assert_allclose(d_pq.plan.flows.sum(axis=1), d_pq.plan.src_mass,
                        rtol=1e-9, atol=1e-12)
        assert_allclose(d_pq.plan.flows.sum(axis=0), d_pq.plan.dst_mass,
                        rtol=1e-9, atol=1e-12)
    note(2, "identity, symmetry, triangle, homogeneity, marginal feasibility "
            "hold on randomized suites")


def test_criterion_03_table_statistics_reproduction():
    checks = [
        (published.MDM_ALL, published.SUMMARY["mdm_all"]),
        (published.MDM_MI21, published.SUMMARY["mdm_mi21"]),
        (published.MDM_FEAT21, published.SUMMARY["mdm_feat21"]),
        (published.CONFORMER_ALL, published.SUMMARY["conformer_all"]),
        (published.EEGNET_ALL, published.SUMMARY["eegnet_all"]),
    ]
    for column, (want_mean, want_sd) in checks:
        mean, sd = stats.cohort_summary(column)
        assert abs(mean - want_mean) <= 0.02
        assert abs(sd - want_sd) <= 0.02

    pairs = [
        (published.MDM_ALL, published.MDM_MI21, published.PVALUES["all_vs_mi21"]),
        (published.MDM_ALL, published.MDM_FEAT21, published.PVALUES["all_vs_feat21"]),
        (published.MDM_ALL, published.CONFORMER_ALL, published.PVALUES["mdm_vs_conformer"]),
        (published.MDM_ALL, published.EEGNET_ALL, published.PVALUES["mdm_vs_eegnet"]),
    ]
    for x, y, want_p in pairs:
        res = stats.wilcoxon_signed_rank(x, y)
        assert res.mode == "exact"
        assert abs(res.p_value - want_p) <= 0.003

    deltas = [
        (published.MDM_ALL, published.MDM_MI21, published.DELTAS["all_vs_mi21"]),
        (published.MDM_ALL, published.MDM_FEAT21, published.DELTAS["all_vs_feat21"]),
        (published.MDM_ALL, published.CONFORMER_ALL, published.DELTAS["mdm_vs_conformer"]),
        (published.MDM_ALL, published.EEGNET_ALL, published.DELTAS["mdm_vs_eegnet"]),
    ]
    for x, y, want_delta in deltas:
        got = float(np.mean(x) - np.mean(y))
        assert abs(got - want_delta) <= 0.02
    note(3, "cohort means/SDs within ±0.02, signed-rank p-values within "
            "±0.003, accuracy deltas within ±0.02")


def test_criterion_04_row_consistency():
    labels = ["Left"] * 56 + ["Right"] * 37
    preds = (["Left"] * 47 + ["Right"] * 9) + (["Right"] * 31 + ["Left"] * 6)
    res = stats.evaluate(preds, labels)
    assert_allclose(100 * res.per_class_recall["Left"], 83.93, atol=0.01)
    assert_allclose(100 * res.per_class_recall["Right"], 83.78, atol=0.01)
    assert abs(100 * res.overall - 83.87) <= 0.01
    note(4, "support-weighted overall reconstructed from per-class recalls "
            f"({100 * res.overall:.4f} vs 83.87)")


def test_criterion_05_spatial_agreement_properties(layout):
    base = relevance.mi_baseline(layout)
    # (a) self distance
    assert emd(base, base).distance <= 1e-12

    # (b) increasing vertical displacement of the whole pattern
    distances = []
    for shift in range(4):
        shifted = SpatialMap(layout.n, np.roll(base.mass, -shift, axis=0))
        distances.append(emd(base, shifted).distance)
    assert all(b >= a - 1e-12 for a, b in zip(distances, distances[1:]))
    assert distances[0] == 0.0

    # (c) 14-channel overlap, 7 channels displaced by one cell each
    moved = [c for c in relevance.MI_BASELINE_CHANNELS if not c.startswith("FC")]
    one_away = ["F5", "F3", "F1", "Fz", "F2", "F4", "F6"]  # directly above FC row
    other = montage.binary_map(set(moved) | set(one_away), layout)
    assert other.total == 21.0
    d = emd(other, base).distance
    assert d == 7.0
    note(5, f"baseline self-distance 0, displacement monotone {distances}, "
            "one-cell construction yields exactly 7.0")


def test_criterion_06_mdm_pipeline_on_synthetic_fixture(rng):
    start = time.monotonic()
    covs, labels = make_spd_dataset(rng, 60, dim=8, discriminative=(3, 7))
    idx = rng.permutation(len(covs))
    n_test = 24
    test_i, train_i = idx[:n_test], idx[n_test:]
    model = spdgeom.mdm_fit([covs[i] for i in train_i], [labels[i] for i in train_i])
    preds = spdgeom.mdm_predict(model, [covs[i] for i in test_i])
    res = stats.evaluate(preds, [labels[i] for i in test_i])
    assert res.overall >= 0.95

    trace = spdgeom.backward_elimination(model.centroids, target_k=2)
    assert set(trace.final_subset) == {3, 7}
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    note(6, f"held-out accuracy {100 * res.overall:.1f}% >= 95%, elimination "
            f"recovered channels {{3, 7}} ({elapsed:.1f}s)")


def test_criterion_07_riemannian_unit_suite(rng):
    # scaled-identity closed form
    for dim in (2, 3, 5):
        for c in (0.5, 2.0, np.e**2, 10.0):
            got = spdgeom.riemannian_distance(np.eye(dim), c * np.eye(dim))
            assert abs(got - np.sqrt(dim) * abs(np.log(c))) <= 1e-9
    # affine invariance
    for _ in range(30):
        a, b = rand_spd(rng, 4), rand_spd(rng, 4)
        w = rng.normal(size=(4, 4)) + 3 * np.eye(4)
        d = spdgeom.riemannian_distance(a, b)
        dw = spdgeom.riemannian_distance(w @ a @ w.T, w @ b @ w.T)
        assert abs(d - dw) <= 1e-7 * max(d, 1.0)
    # mean residual at convergence
    for _ in range(5):
        mats = [rand_spd(rng, 4) for _ in range(12)]
        mean = spdgeom.frechet_mean(mats, tol=1e-8)
        w, v = np.linalg.eigh(mean)
        isq = (v * (1 / np.sqrt(w))) @ v.T
        total = np.zeros((4, 4))
        for m in mats:
            ww, vv = np.linalg.eigh(isq @ m @ isq)
            total += (vv * np.log(ww)) @ vv.T
        assert np.linalg.norm(total, "fro") <= 1e-8
    note(7, "scaled-identity distances exact to 1e-9, affine invariance to "
            "1e-7, mean gradient residual <= 1e-8")


def test_criterion_08_preprocessing_contract(rng):
    fs = 160.0
    # one 4 s labeled trial -> exactly 4 epochs x 160 samples
    rec = make_motor_recording(rng, ["C3", "C4"], n_trials=1, sample_rate=fs)
    epochs = epoch_trials(rec)
    assert len(epochs) == 4
    assert all(e.data.shape == (2, 160) for e in epochs)

    t = np.arange(int(10 * fs)) / fs
    mid = slice(len(t) // 4, 3 * len(t) // 4)
    in_band = Recording(["a"], fs, np.sin(2 * np.pi * 20.0 * t)[None, :])
    amp20 = np.sqrt(2 * np.mean(bandpass(in_band).data[0][mid] ** 2))
    assert abs(amp20 - 1.0) < 0.05
    out_band = Recording(["a"], fs, np.sin(2 * np.pi * 2.0 * t)[None, :])
    amp2 = np.sqrt(2 * np.mean(bandpass(out_band).data[0][mid] ** 2))
    attenuation_db = -20 * np.log10(amp2)
    assert attenuation_db >= 20.0
    note(8, f"4x160 epochs per trial; 20 Hz amplitude {amp20:.4f}, "
            f"2 Hz attenuated {attenuation_db:.0f} dB")


def test_criterion_09_end_to_end_determinism(tmp_path, rng):
    build_dataset(tmp_path / "data", [1, 2], [3, 4], CHANNELS_6, rng,
                  n_trials=12, discriminative=(1, 2))
    outputs = []
    for run_id in ("r1", "r2"):
        cfg = write_config(
            tmp_path / f"{run_id}.cfg", channel_config="feat21", target_k=2,
            cache_dir=f"cache_{run_id}", output_dir=f"out_{run_id}",
        )
        assert main(["prepare", "--config", str(cfg)]) == 0
        assert main(["train-eval", "--config", str(cfg)]) == 0
        out = tmp_path / f"out_{run_id}"
        assert main(["report", "--config", str(cfg),
                     "--rows", str(out / "rows.csv"),
                     "--output-dir", str(out)]) == 0
        assert main(["plot", "--map", str(out / "map_riemannian_binary_top2.csv"),
                     "--out", str(out / "map.svg")]) == 0
        assert main(["emd", "--config", str(cfg),
                     "--cohorts", f"riemannian={out / 'cohort_riemannian.json'}"]) == 0
        outputs.append(out)
    files1 = sorted(p.name for p in outputs[0].iterdir())
    files2 = sorted(p.name for p in outputs[1].iterdir())
    assert files1 == files2
    assert {"emd_table.csv", "emd_table.json"} <= set(files1)
    for name in files1:
        b1 = (outputs[0] / name).read_bytes()
        b2 = (outputs[1] / name).read_bytes()
        assert b1 == b2, f"output {name} differs between identical runs"
    note(9, f"two identical runs produced byte-identical outputs: {files1}")


PHYSIONET_ROOT = os.environ.get("EMDSCALP_PHYSIONET", "")


@pytest.mark.skipif(
    not PHYSIONET_ROOT or not Path(PHYSIONET_ROOT).is_dir(),
    reason="real 64-channel dataset not present (set EMDSCALP_PHYSIONET)",
)
def test_criterion_10_real_dataset_cohort_mean(tmp_path):
    cfg = write_config(
        tmp_path / "real.cfg",
        dataset_root=PHYSIONET_ROOT,
        subjects=",".join(str(s) for s in published.SUBJECT_IDS),
        runs="3,4,7,8,11,12",
        channel_config="all64",
        test_fraction=0.2,
        seed=42,
        cache_dir=str(tmp_path / "cache"),
        output_dir=str(tmp_path / "out"),
    )
    assert main(["prepare", "--config", str(cfg)]) == 0
    assert main(["train-eval", "--config", str(cfg)]) == 0
    rows = json.loads((tmp_path / "out" / "rows.json").read_text())
    mean = 100 * float(np.mean([r["overall"] for r in rows]))
    assert abs(mean - 73.63) <= 5.0
    note(10, f"real-data cohort mean {mean:.2f} within 73.63 ± 5.0")
