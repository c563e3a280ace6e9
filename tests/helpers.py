"""Shared test utilities: independent oracles and synthetic data builders.

The LP oracle solves the full flow polytope with scipy's HiGHS and the
assignment oracle integer-mass maps with scipy's assignment solver; neither
shares code or algorithm with the transport module's simplex.  The EDF writer produces identity-scaled files so integer-valued
samples round-trip exactly.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

from emdscalp.montage import SpatialMap
from emdscalp.signal import Recording, Annotation


def lp_emd(p: SpatialMap, q: SpatialMap, metric: str = "euclidean",
           normalize: bool = False) -> float:
    """Brute-force LP reference for the earth mover's distance."""
    pm = p.mass.ravel().astype(float)
    qm = q.mass.ravel().astype(float)
    if normalize:
        pm = pm / pm.sum()
        qm = qm / qm.sum()
    else:
        qm = qm * (pm.sum() / qm.sum())
    src = np.flatnonzero(pm > 0)
    dst = np.flatnonzero(qm > 0)
    sc = np.array([(i // p.n, i % p.n) for i in src], dtype=float)
    dc = np.array([(j // q.n, j % q.n) for j in dst], dtype=float)
    cost = cdist(sc, dc, metric="cityblock" if metric == "manhattan" else "euclidean")
    m, k = cost.shape
    a_eq = np.zeros((m + k, m * k))
    for i in range(m):
        a_eq[i, i * k:(i + 1) * k] = 1.0
    for j in range(k):
        a_eq[m + j, j::k] = 1.0
    b_eq = np.concatenate([pm[src], qm[dst]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun)


def assignment_emd(p: SpatialMap, q: SpatialMap) -> float:
    """Assignment reference for integer-mass maps with equal totals.

    Each unit of mass becomes one node, so the transport problem becomes a
    square assignment problem; by total unimodularity its optimum equals the
    transport optimum.
    """
    pm, qm = p.mass.ravel(), q.mass.ravel()
    assert np.array_equal(pm, np.round(pm)) and np.array_equal(qm, np.round(qm))
    assert pm.sum() == qm.sum() > 0
    src = np.repeat(np.arange(pm.size), pm.astype(int))
    dst = np.repeat(np.arange(qm.size), qm.astype(int))
    sc = np.column_stack(np.divmod(src, p.n)).astype(float)
    dc = np.column_stack(np.divmod(dst, q.n)).astype(float)
    cost = cdist(sc, dc)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def random_integer_map_pair(rng: np.random.Generator, n: int) -> tuple[SpatialMap, SpatialMap]:
    """Two random integer-mass maps on an n x n grid with one total below 30."""
    total = int(rng.integers(1, 30))
    a = np.bincount(rng.integers(0, n * n, total), minlength=n * n)
    b = np.bincount(rng.integers(0, n * n, total), minlength=n * n)
    return SpatialMap(n, a.reshape(n, n)), SpatialMap(n, b.reshape(n, n))


def random_map_pair(rng: np.random.Generator, n: int,
                    density: float = 0.5) -> tuple[SpatialMap, SpatialMap]:
    """Two random equal-total maps on an n x n grid with sparse support."""
    while True:
        a = rng.random((n, n)) * (rng.random((n, n)) < density)
        b = rng.random((n, n)) * (rng.random((n, n)) < density)
        if a.sum() > 0 and b.sum() > 0:
            break
    b *= a.sum() / b.sum()
    return SpatialMap(n, a), SpatialMap(n, b)


def _pad(value: str, width: int) -> bytes:
    s = str(value)
    assert len(s) <= width, f"field {s!r} exceeds {width} bytes"
    return s.ljust(width).encode("ascii")


def write_edf(
    path: str | Path,
    data: np.ndarray,
    sample_rate: float,
    annotations: list[tuple[float, float, str]] | None = None,
    labels: list[str] | None = None,
    record_seconds: float = 1.0,
) -> Path:
    """Write an EDF+ file with identity digital->physical scaling.

    `data` must be integer-valued floats in [-32768, 32767] with a sample
    count divisible by the record size; `annotations` are (onset_s,
    duration_s, code) triples.
    """
    data = np.asarray(data)
    n_ch, n_samples = data.shape
    spr = int(round(sample_rate * record_seconds))
    assert n_samples % spr == 0, "sample count must fill whole records"
    n_records = n_samples // spr
    annotations = annotations or []
    labels = labels or [f"EEG ch{i}" for i in range(n_ch)]

    tals_per_record: list[bytes] = []
    for r in range(n_records):
        t0 = r * record_seconds
        tal = f"+{t0:g}\x14\x14\x00".encode("ascii")
        for onset, dur, code in annotations:
            if t0 <= onset < t0 + record_seconds:
                tal += f"+{onset:g}\x15{dur:g}\x14{code}\x14\x00".encode("ascii")
        tals_per_record.append(tal)
    ann_bytes = max(len(t) for t in tals_per_record) + 2
    ann_spr = math.ceil(ann_bytes / 2)

    ns = n_ch + 1
    header = b"".join([
        _pad("0", 8), _pad("test patient", 80), _pad("test recording", 80),
        _pad("01.01.20", 8), _pad("00.00.00", 8),
        _pad(str(256 + ns * 256), 8), _pad("EDF+C", 44),
        _pad(str(n_records), 8), _pad(f"{record_seconds:g}", 8), _pad(str(ns), 4),
    ])
    sig_labels = labels + ["EDF Annotations"]
    cols = [
        (16, sig_labels),
        (80, [""] * ns),
        (8, ["uV"] * n_ch + [""]),
        (8, ["-32768"] * n_ch + ["-1"]),
        (8, ["32767"] * n_ch + ["1"]),
        (8, ["-32768"] * ns),
        (8, ["32767"] * ns),
        (80, [""] * ns),
        (8, [str(spr)] * n_ch + [str(ann_spr)]),
        (32, [""] * ns),
    ]
    for width, vals in cols:
        header += b"".join(_pad(v, width) for v in vals)

    records = bytearray()
    dig = np.clip(np.round(data), -32768, 32767).astype("<i2")
    for r in range(n_records):
        for c in range(n_ch):
            records += dig[c, r * spr:(r + 1) * spr].tobytes()
        tal = tals_per_record[r]
        records += tal + b"\x00" * (2 * ann_spr - len(tal))
    out = Path(path)
    out.write_bytes(header + bytes(records))
    return out


def make_motor_recording(
    rng: np.random.Generator,
    channel_names: list[str],
    n_trials: int,
    sample_rate: float = 160.0,
    discriminative: tuple[int, ...] = (),
    var_ratio: float = 3.0,
    gap_s: float = 1.0,
    amplitude: float = 1500.0,
) -> Recording:
    """Synthetic alternating left/right fist recording.

    Trials are 4 s, annotated T1/T2; channels in `discriminative` carry
    `var_ratio` times the variance on T2 trials, which is what the
    covariance classifier keys on.
    """
    n_ch = len(channel_names)
    trial_len = int(4 * sample_rate)
    gap = int(gap_s * sample_rate)
    total = n_trials * (trial_len + gap) + gap
    data = rng.normal(scale=amplitude / 10.0, size=(n_ch, total))
    annotations = []
    for t in range(n_trials):
        onset = gap + t * (trial_len + gap)
        code = "T1" if t % 2 == 0 else "T2"
        if code == "T2" and discriminative:
            burst = rng.normal(scale=amplitude / 10.0 * np.sqrt(var_ratio),
                               size=(len(discriminative), trial_len))
            data[np.array(discriminative), onset:onset + trial_len] = burst
        annotations.append(Annotation(onset, trial_len, code))
    data = np.round(np.clip(data, -32000, 32000))
    return Recording(list(channel_names), sample_rate, data, annotations)


def recording_to_edf(path: str | Path, rec: Recording,
                     record_seconds: float = 1.0) -> Path:
    spr = int(round(rec.sample_rate * record_seconds))
    keep = (rec.n_samples // spr) * spr
    ann = [
        (a.onset / rec.sample_rate, a.duration / rec.sample_rate, a.code)
        for a in rec.annotations
    ]
    return write_edf(path, rec.data[:, :keep], rec.sample_rate, ann,
                     labels=rec.channel_names, record_seconds=record_seconds)


def rand_spd(rng: np.random.Generator, dim: int, spread: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim))
    q = np.linalg.qr(a)[0]
    ev = np.exp(rng.normal(scale=spread, size=dim))
    return (q * ev) @ q.T


def make_spd_dataset(
    rng: np.random.Generator,
    n_per_class: int,
    dim: int = 8,
    discriminative: tuple[int, ...] | None = None,
    var_ratio: float = 3.0,
    n_samples: int = 160,
    shrinkage: float = 0.05,
) -> tuple[list[np.ndarray], list[str]]:
    """Two-class covariance set where only `discriminative` channels differ."""
    from emdscalp.spdgeom import covariance, shrink

    if discriminative is None:
        discriminative = (3, 7) if dim >= 8 else (dim - 1,)
    epochs, labels = [], []
    for label in ("Left", "Right"):
        for _ in range(n_per_class):
            x = rng.normal(size=(dim, n_samples))
            if label == "Right":
                x[np.array(discriminative)] *= np.sqrt(var_ratio)
            epochs.append(x)
            labels.append(label)
    return list(shrink(covariance(epochs), shrinkage)), labels
