"""Deterministic benchmark inputs: EDF+ recordings, spatial maps, cohort files.

Everything here is derived from one integer seed, so the same seed always
yields byte-identical files.  The program under test only ever sees the files
written here; nothing in this module imports it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: The 64-channel 10-10 montage in the 11 x 11 grid of the packaged layout
#: (name, row, col), listed in PhysioNet EDF channel order.
MONTAGE = (
    ("FC5", 4, 2), ("FC3", 4, 3), ("FC1", 4, 4), ("FCz", 4, 5), ("FC2", 4, 6),
    ("FC4", 4, 7), ("FC6", 4, 8),
    ("C5", 5, 2), ("C3", 5, 3), ("C1", 5, 4), ("Cz", 5, 5), ("C2", 5, 6),
    ("C4", 5, 7), ("C6", 5, 8),
    ("CP5", 6, 2), ("CP3", 6, 3), ("CP1", 6, 4), ("CPz", 6, 5), ("CP2", 6, 6),
    ("CP4", 6, 7), ("CP6", 6, 8),
    ("Fp1", 1, 4), ("Fpz", 1, 5), ("Fp2", 1, 6),
    ("AF7", 2, 3), ("AF3", 2, 4), ("AFz", 2, 5), ("AF4", 2, 6), ("AF8", 2, 7),
    ("F7", 3, 1), ("F5", 3, 2), ("F3", 3, 3), ("F1", 3, 4), ("Fz", 3, 5),
    ("F2", 3, 6), ("F4", 3, 7), ("F6", 3, 8), ("F8", 3, 9),
    ("FT7", 4, 1), ("FT8", 4, 9), ("T7", 5, 1), ("T8", 5, 9), ("T9", 5, 0),
    ("T10", 5, 10), ("TP7", 6, 1), ("TP8", 6, 9),
    ("P7", 7, 1), ("P5", 7, 2), ("P3", 7, 3), ("P1", 7, 4), ("Pz", 7, 5),
    ("P2", 7, 6), ("P4", 7, 7), ("P6", 7, 8), ("P8", 7, 9),
    ("PO7", 8, 3), ("PO3", 8, 4), ("POz", 8, 5), ("PO4", 8, 6), ("PO8", 8, 7),
    ("O1", 9, 4), ("Oz", 9, 5), ("O2", 9, 6), ("Iz", 10, 5),
)
NAMES = tuple(m[0] for m in MONTAGE)
GRID = 11
#: The 21 motor-cortex baseline channels: the FC, C and CP rows.
BASELINE = NAMES[:21]
#: Imagery runs of the paper's protocol (left/right fist).
PAPER_RUNS = (3, 4, 7, 8, 11, 12)

SAMPLE_RATE = 160
TRIAL_S = 4
GAP_S = 1
AMPLITUDE = 150.0  # noise standard deviation in digital units (identity scaling)


def edf_label(name: str) -> str:
    """PhysioNet-style label: 'Fc5.', 'C3..', 'T10.'."""
    return (name[0] + name[1:].lower()).ljust(4, ".")


def _field(value: str, width: int) -> bytes:
    text = str(value)
    if len(text) > width:
        raise ValueError(f"EDF field {text!r} exceeds {width} bytes")
    return text.ljust(width).encode("ascii")


def write_edf(path: Path, data: np.ndarray, labels: list[str],
              annotations: list[tuple[float, float, str]]) -> None:
    """EDF+C writer with 1 s records and identity digital->physical scaling.

    `data` holds integer-valued samples, shape (channels, samples), with a
    whole number of records; `annotations` are (onset_s, duration_s, code).
    """
    n_ch, n_samples = data.shape
    spr = SAMPLE_RATE
    if n_samples % spr:
        raise ValueError("sample count must fill whole 1 s records")
    n_records = n_samples // spr
    tals = []
    for r in range(n_records):
        tal = f"+{r}\x14\x14\x00"
        for onset, dur, code in annotations:
            if r <= onset < r + 1:
                tal += f"+{onset:g}\x15{dur:g}\x14{code}\x14\x00"
        tals.append(tal.encode("ascii"))
    ann_spr = math.ceil((max(len(t) for t in tals) + 2) / 2)

    ns = n_ch + 1
    header = b"".join([
        _field("0", 8), _field("X X X X", 80), _field("Startdate X X X X", 80),
        _field("01.01.20", 8), _field("00.00.00", 8), _field(256 + 256 * ns, 8),
        _field("EDF+C", 44), _field(n_records, 8), _field("1", 8), _field(ns, 4),
    ])
    blocks = [
        (16, labels + ["EDF Annotations"]),
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
    for width, values in blocks:
        header += b"".join(_field(v, width) for v in values)

    dig = np.clip(np.round(data), -32768, 32767).astype("<i2")
    body = dig.reshape(n_ch, n_records, spr).transpose(1, 0, 2).reshape(n_records, -1)
    ann = np.zeros((n_records, 2 * ann_spr), dtype=np.uint8)
    for r, tal in enumerate(tals):
        ann[r, :len(tal)] = np.frombuffer(tal, dtype=np.uint8)
    records = np.concatenate([body.view(np.uint8), ann], axis=1)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(header + records.tobytes())


@dataclass(frozen=True)
class SubjectSpec:
    """What was planted in one synthetic subject."""

    subject: int
    planted: tuple[str, ...]  # channels whose variance differs on T2 trials
    var_ratio: float          # T2 / T1 variance ratio on planted channels


def subject_specs(seed: int, n_subjects: int, n_channels: int) -> list[SubjectSpec]:
    """Per-subject planted channels and a moderate, varying discriminability.

    Two planted channels come from the motor baseline and one from anywhere
    else among the first `n_channels`, so `mi21` and `feat21` differ and
    cohort counts spread over the grid.  Variance ratios of 1.7-2.5 keep
    the planted channels ahead of noise in elimination even with 30
    training epochs, while accuracies stay mostly below 1.0, so paired
    accuracies differ between channel configurations and `report` has
    p-values to compute.
    """
    rng = np.random.default_rng([seed, 1])
    specs = []
    for i in range(n_subjects):
        motor = rng.choice(len(BASELINE), size=2, replace=False)
        other = rng.choice([j for j in range(n_channels) if j not in motor])
        planted = tuple(NAMES[j] for j in sorted([*motor, other]))
        ratio = float(rng.uniform(1.7, 2.5))
        specs.append(SubjectSpec(subject=i + 1, planted=planted, var_ratio=ratio))
    return specs


def write_subject(root: Path, seed: int, spec: SubjectSpec, runs: tuple[int, ...],
                  n_trials: int, n_channels: int) -> None:
    """Write one EDF+ file per run for a subject: alternating T1/T2 trials."""
    names = NAMES[:n_channels]
    planted = np.array([names.index(n) for n in spec.planted])
    labels = [edf_label(n) for n in names]
    trial_len, gap = TRIAL_S * SAMPLE_RATE, GAP_S * SAMPLE_RATE
    total = n_trials * (trial_len + gap) + gap
    tag = f"S{spec.subject:03d}"
    for run in runs:
        rng = np.random.default_rng([seed, 2, spec.subject, run])
        data = rng.normal(scale=AMPLITUDE, size=(n_channels, total))
        annotations = []
        for t in range(n_trials):
            onset = gap + t * (trial_len + gap)
            code = "T1" if t % 2 == 0 else "T2"
            if code == "T2":
                data[planted, onset:onset + trial_len] *= math.sqrt(spec.var_ratio)
            annotations.append((onset / SAMPLE_RATE, float(TRIAL_S), code))
        write_edf(root / tag / f"{tag}R{run:02d}.edf", data, labels, annotations)


def write_cohort(root: Path, seed: int, n_subjects: int, runs: tuple[int, ...],
                 n_trials: int, n_channels: int = len(NAMES)) -> list[SubjectSpec]:
    """Recordings of `n_subjects` subjects; channels are the first `n_channels`
    of `NAMES`, which always include the 21 baseline channels."""
    if not len(BASELINE) < n_channels <= len(NAMES):
        raise ValueError(f"n_channels must be in ({len(BASELINE)}, {len(NAMES)}]")
    specs = subject_specs(seed, n_subjects, n_channels)
    for spec in specs:
        write_subject(root, seed, spec, runs, n_trials, n_channels)
    return specs


# ---------------------------------------------------------------------------
# spatial maps for the scoring workload

def _cell(name: str) -> tuple[int, int]:
    return MONTAGE[NAMES.index(name)][1:]


def grid_text(mass: np.ndarray) -> str:
    """A map file: GRID rows of comma-separated decimal masses."""
    return "\n".join(",".join(repr(float(v)) for v in row) for row in mass) + "\n"


def binary_mass(channels) -> np.ndarray:
    mass = np.zeros((GRID, GRID))
    for name in channels:
        mass[_cell(name)] = 1.0
    return mass


def weighted_mass(weights: dict[str, float]) -> np.ndarray:
    mass = np.zeros((GRID, GRID))
    for name, w in weights.items():
        mass[_cell(name)] = w
    return mass


def random_top21(rng: np.random.Generator) -> list[str]:
    """21 channels biased towards the motor strip, as selections tend to be."""
    weight = np.array([3.0 if n in BASELINE else 1.0 for n in NAMES])
    idx = rng.choice(len(NAMES), size=21, replace=False, p=weight / weight.sum())
    return [NAMES[i] for i in sorted(idx)]


def random_cohort(rng: np.random.Generator, n_subjects: int) -> dict:
    """A cohort document in the shape `select-channels` writes."""
    selections = {f"S{i + 1:03d}": sorted(random_top21(rng)) for i in range(n_subjects)}
    counts: dict[str, int] = {}
    for chans in selections.values():
        for name in chans:
            counts[name] = counts.get(name, 0) + 1
    return {
        "model": "synthetic",
        "subjects": sorted(selections),
        "selections": selections,
        "counts": dict(sorted(counts.items())),
    }


def model_weights(rng: np.random.Generator) -> np.ndarray:
    """Positive per-electrode weights on all 64 montage cells."""
    return weighted_mass({n: float(w) for n, w in zip(NAMES, rng.gamma(2.0, 1.0, len(NAMES)))})


def dense_mass(rng: np.random.Generator) -> np.ndarray:
    """Strictly positive mass on every cell of the grid."""
    return rng.gamma(2.0, 1.0, size=(GRID, GRID)) + 0.05


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
