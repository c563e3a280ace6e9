"""EEG ingestion and preprocessing, in numpy alone.

EDF/EDF+ parsing, 8-30 Hz zero-phase bandpass, segmentation of labeled
trials into fixed-length epochs, and seeded stratified train/test splitting.
Annotations are kept in sample units throughout.

The bandpass has the semantics of scipy's ``filtfilt`` on the coefficients
of scipy's ``butter``, which `_butter_bandpass` reproduces byte for byte.
Its recurrence runs over blocks of `_BLOCK_LEN` = 64 samples as matrix
products over all channels (Burrus, "Block realization of digital filters",
1972).
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .stats import _class_partition

__all__ = [
    "Annotation",
    "Recording",
    "Epoch",
    "read_recording",
    "read_recording_csv",
    "bandpass",
    "epoch_trials",
    "split",
]

log = logging.getLogger(__name__)

#: annotation code -> epoch label (fist movement/imagery); other codes are rest
LABEL_CODES = {"T1": "Left", "T2": "Right"}
#: each labeled trial's first 4 s are cut into four 1 s epochs
EPOCH_S = 1.0
EPOCHS_PER_TRIAL = 4


@dataclass(frozen=True)
class Annotation:
    """Event marker: onset and duration in samples plus its code."""

    onset: int
    duration: int
    code: str


@dataclass(eq=False)
class Recording:
    """A multichannel recording in physical units."""

    channel_names: list[str]
    sample_rate: float
    data: np.ndarray
    annotations: list[Annotation] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[0] != len(self.channel_names):
            raise ValueError(
                f"data shape {self.data.shape} does not match "
                f"{len(self.channel_names)} channel names"
            )
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        n = self.data.shape[1]
        for ann in self.annotations:
            if ann.onset < 0 or ann.onset > n:
                raise ValueError(f"annotation onset {ann.onset} outside data bounds")

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class Epoch:
    """One fixed-length labeled segment of a trial."""

    data: np.ndarray
    label: str


def _edf_int(raw: bytes, what: str) -> int:
    try:
        return int(raw.decode("latin-1").strip())
    except ValueError:
        raise ValueError(f"malformed header: bad {what} field {raw!r}") from None


def _edf_float(raw: bytes, what: str) -> float:
    try:
        value = float(raw.decode("latin-1").strip())
    except ValueError:
        raise ValueError(f"malformed header: bad {what} field {raw!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"malformed header: bad {what} field {raw!r}")
    return value


def _parse_tals(buf: bytes, sample_rate: float) -> list[Annotation]:
    annotations = []
    for tal in buf.split(b"\x00"):
        if not tal:
            continue
        fields = tal.split(b"\x14")
        if len(fields) < 2:
            raise ValueError(f"unknown annotation encoding: {tal!r}")
        head = fields[0]
        if b"\x15" in head:
            onset_b, dur_b = head.split(b"\x15", 1)
        else:
            onset_b, dur_b = head, b"0"
        try:
            onset = float(onset_b.decode("latin-1")) * sample_rate
            duration = float(dur_b.decode("latin-1")) * sample_rate
        except ValueError:
            raise ValueError(f"unknown annotation encoding: {tal!r}") from None
        if not (np.isfinite(onset) and np.isfinite(duration)):
            raise ValueError(f"unknown annotation encoding: {tal!r}")
        for text in fields[1:]:
            code = text.decode("latin-1").strip()
            if code:  # empty text = record-keeping timestamp, not an event
                annotations.append(
                    Annotation(
                        onset=int(round(onset)),
                        duration=int(round(duration)),
                        code=code,
                    )
                )
    return annotations


def read_recording(path: str | Path) -> Recording:
    """Read an EDF/EDF+ file into physical units.

    Digital values are mapped through each signal's physical/digital
    calibration; 'EDF Annotations' channels are decoded into sample-unit
    annotations and excluded from the data matrix.  All data channels must
    share one sampling rate.  The header size field must be 256 bytes per
    signal plus 256, and the file exactly the header plus its record count
    of records (a count of -1 reads every whole record the file holds).
    """
    raw = Path(path).read_bytes()
    if len(raw) < 256:
        raise ValueError("malformed header: file shorter than 256 bytes")
    n_records = _edf_int(raw[236:244], "record count")
    duration = _edf_float(raw[244:252], "record duration")
    ns = _edf_int(raw[252:256], "signal count")
    if ns < 1:
        raise ValueError(f"malformed header: claims {ns} signals")
    if duration <= 0:
        raise ValueError(f"malformed header: record duration {duration}")
    header_bytes = 256 + ns * 256
    if len(raw) < header_bytes:
        raise ValueError("malformed header: truncated signal header block")
    if _edf_int(raw[184:192], "header size") != header_bytes:
        raise ValueError(f"malformed header: header size field {raw[184:192]!r} is not "
                         f"{header_bytes} for {ns} signals")

    def sig_field(block_off: int, width: int, i: int) -> bytes:
        # block_off: byte offset of the field block within the per-signal
        # header region (each block holds ns fixed-width entries)
        start = 256 + block_off * ns + width * i
        return raw[start:start + width]

    labels = [sig_field(0, 16, i).decode("latin-1").strip() for i in range(ns)]
    pmin = [_edf_float(sig_field(104, 8, i), "physical min") for i in range(ns)]
    pmax = [_edf_float(sig_field(112, 8, i), "physical max") for i in range(ns)]
    dmin = [_edf_int(sig_field(120, 8, i), "digital min") for i in range(ns)]
    dmax = [_edf_int(sig_field(128, 8, i), "digital max") for i in range(ns)]
    nsamp = [_edf_int(sig_field(216, 8, i), "samples per record") for i in range(ns)]
    if min(nsamp) < 1:
        raise ValueError(f"malformed header: {min(nsamp)} samples per record")

    record_samples = sum(nsamp)
    record_bytes = 2 * record_samples
    data_bytes = len(raw) - header_bytes
    if n_records < 0:  # unknown record count is legal; derive from file size
        n_records = data_bytes // record_bytes
    elif data_bytes > n_records * record_bytes:
        raise ValueError(f"{data_bytes - n_records * record_bytes} bytes past the "
                         f"{n_records} data records the header counts")
    if data_bytes < n_records * record_bytes:
        raise ValueError("truncated data records")

    ann_idx = [i for i, lab in enumerate(labels) if lab == "EDF Annotations"]
    data_idx = [i for i in range(ns) if i not in ann_idx]
    if not data_idx:
        raise ValueError("recording has no data channels")
    rates = {nsamp[i] / duration for i in data_idx}
    if len(rates) != 1:
        raise ValueError(f"channels with differing sample rates unsupported: {sorted(rates)}")
    sample_rate = rates.pop()

    samples = np.frombuffer(
        raw, dtype="<i2", count=n_records * record_samples, offset=header_bytes
    ).reshape(n_records, record_samples)
    offsets = np.concatenate([[0], np.cumsum(nsamp)])

    data = np.empty((len(data_idx), n_records * nsamp[data_idx[0]]))
    names = []
    for out_row, i in enumerate(data_idx):
        dig = samples[:, offsets[i]:offsets[i + 1]].ravel().astype(float)
        if dmax[i] == dmin[i]:
            raise ValueError(f"malformed header: flat digital range on signal {i}")
        scale = (pmax[i] - pmin[i]) / (dmax[i] - dmin[i])
        data[out_row] = (dig - dmin[i]) * scale + pmin[i]
        names.append(labels[i].rstrip("."))

    annotations: list[Annotation] = []
    for i in ann_idx:
        byte_lo, byte_hi = 2 * offsets[i], 2 * offsets[i + 1]
        for r in range(n_records):
            rec_off = header_bytes + r * record_bytes
            annotations.extend(
                _parse_tals(raw[rec_off + byte_lo:rec_off + byte_hi], sample_rate)
            )
    annotations.sort(key=lambda a: (a.onset, a.code))
    return Recording(names, sample_rate, data, annotations)


def read_recording_csv(
    data_path: str | Path,
    annotation_path: str | Path | None = None,
    sample_rate: float = 160.0,
) -> Recording:
    """Read the CSV alternative format.

    `data_path`: header row of channel names, one column per channel.
    `annotation_path`: optional sidecar with ``onset,duration,code`` rows
    in sample units.  A data file without a header row, a data row that is
    not one number per channel, or an annotation row of fewer than three
    fields or whose onset and duration are not non-negative integers with
    the onset inside the data, raises ``ValueError``; a row's error names
    its file and line.
    """
    with open(data_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        names = next(reader, None)
        if names is None:
            raise ValueError("no header row of channel names")
        columns = []
        for row in reader:
            if not row:
                continue
            try:
                values = [float(v) for v in row]
            except ValueError:
                values = None
            if values is None or len(values) != len(names):
                raise ValueError(f"{data_path} line {reader.line_num}: expected "
                                 f"{len(names)} numbers, got {row}")
            columns.append(values)
    data = np.array(columns, dtype=float).T if columns else np.zeros((len(names), 0))
    annotations, n_samples = [], data.shape[1]
    if annotation_path is not None:
        with open(annotation_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or row[0].startswith("#") or row[0] == "onset":
                    continue
                if (len(row) < 3 or not all(f.strip().isdecimal() for f in row[:2])
                        or int(row[0]) > n_samples):
                    raise ValueError(f"{annotation_path} line {reader.line_num}: expected "
                                     f"onset,duration,code with integers 0 <= onset <= "
                                     f"{n_samples} and duration >= 0, got {row}")
                annotations.append(Annotation(int(row[0]), int(row[1]), row[2]))
    return Recording([n.strip() for n in names], sample_rate, data, annotations)


#: Butterworth order of the bandpass prototype; the digital filter has twice as
#: many poles, so the recurrence carries ``2 * _ORDER`` states.
_ORDER = 4
#: Samples per block of the block recurrence: the block matrices are built in
#: L steps and each block costs a (c, L) x (L, L + 8) product.
_BLOCK_LEN = 64


def _butter_bandpass(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Transfer-function coefficients ``(b, a)`` of the digital Butterworth
    bandpass of order `_ORDER` with edges `lo`, `hi` as fractions of Nyquist.

    The analog prototype's poles go through the bandpass substitution and
    the bilinear transform at a pre-warped sampling rate of 2, in the same
    operations and order as scipy's ``butter(_ORDER, [lo, hi], "bandpass")``,
    so both give the same bytes.
    """
    m = np.arange(-_ORDER + 1, _ORDER, 2, dtype=float)
    p = -np.exp(1j * np.pi * m / (2 * _ORDER))  # analog lowpass, cutoff 1 rad/s
    warped = 4.0 * np.tan(np.pi * np.array([lo, hi]) / 2.0)
    bw, wo = float(warped[1] - warped[0]), float(np.sqrt(warped[0] * warped[1]))
    p_lp = p * bw / 2
    p_bp = np.concatenate((p_lp + np.sqrt(p_lp**2 - wo**2),
                           p_lp - np.sqrt(p_lp**2 - wo**2)))
    z_bp = np.zeros(_ORDER, dtype=complex)  # the other _ORDER zeros are at infinity
    z_z = np.concatenate(((4.0 + z_bp) / (4.0 - z_bp), -np.ones(_ORDER)))
    p_z = (4.0 + p_bp) / (4.0 - p_bp)
    k_z = bw**_ORDER * np.real(np.prod(4.0 - z_bp) / np.prod(4.0 - p_bp))
    return k_z * np.poly(z_z), np.poly(p_z)


def _block_matrices(b: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(Hᵀ, Oᵀ, R, (Fᴸ)ᵀ, zi, g)``: the direct-form-II-transposed recurrence
    of ``(b, a)`` over blocks of ``L = _BLOCK_LEN`` samples (Burrus 1972), and
    its steady state for a unit step, for row-vector states in the basis
    below.

    A block ``X`` of shape ``(c, L)`` entered with states ``Z`` of shape
    ``(c, m)`` leaves outputs ``X·Hᵀ + Z·Oᵀ`` and states ``Z·(Fᴸ)ᵀ + X·R``;
    a constant unit input holds the states at `zi` and the output at `g`.
    The four matrices come from running the recurrence itself, in float64,
    for L steps from the m unit states and from a unit impulse; no power of
    the companion matrix is formed.  The states are then carried in the
    orthonormal basis of their L-step zero-input responses (the Q of
    ``O = Q·U``): the direct-form states run to ~8x the output and their
    responses cancel, which nearly doubled the filter's error.
    """
    m, L = len(a) - 1, _BLOCK_LEN
    # rows 0..m-1 start from unit states, row m from rest with a unit impulse
    z = np.vstack([np.eye(m), np.zeros((1, m))])
    x = np.zeros(m + 1)
    x[m] = 1.0
    outputs, states = np.empty((L, m + 1)), np.empty((L, m))
    for k in range(L):
        y = b[0] * x + z[:, 0]
        z_next = np.outer(x, b[1:]) - np.outer(y, a[1:])
        z_next[:, :-1] += z[:, 1:]
        z = z_next
        outputs[k], states[k] = y, z[m]
        x[m] = 0.0
    h = outputs[:, m]  # impulse response
    lag = np.subtract.outer(np.arange(L), np.arange(L))
    ht = np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0).T
    q, u = np.linalg.qr(outputs[:, :m])
    # an impulse at sample j of a block reaches the block's end state after L - j steps
    r = states[::-1] @ u.T
    flt = np.linalg.solve(u.T, z[:m] @ u.T)
    # steady state of the direct form: zi = A·zi + B with A the transposed companion
    i_minus_a = np.eye(m) - np.eye(m, k=1)
    i_minus_a[:, 0] += a[1:]
    zi = np.linalg.solve(i_minus_a, b[1:] - a[1:] * b[0])
    return ht, q.T.copy(), r, flt, zi @ u.T, zi[0] + b[0]


def _filter_blocks(blocks: np.ndarray, mats: tuple[np.ndarray, ...], backward: bool) -> None:
    """Filter the ``(c, n_blocks, L)`` array `blocks` in place, forward or
    backward in time, from the steady state for its first sample in that
    direction, with the `_block_matrices` `mats`.

    Each block's first sample is subtracted before the products and its
    steady-state output added back after, so the products see only what
    varies within a block and a DC offset or a slow drift costs no digits.
    The states carry the deviation from that steady state, starting at 0.
    """
    ht, ot, r, flt, zi, g = mats
    if backward:  # blocks in reverse order, each read by the reversed matrices
        ht, ot, r = ht[::-1, ::-1], ot[:, ::-1], r[::-1]
    # one product per block for its outputs and end states from its samples,
    # one from its start states
    from_samples, from_states = np.hstack([ht, r]), np.hstack([ot, flt])
    L, n_blocks = len(ht), blocks.shape[1]
    order = range(n_blocks - 1, -1, -1) if backward else range(n_blocks)
    offsets = blocks[:, :, -1 if backward else 0, None].copy()
    blocks -= offsets
    in_order = offsets[:, order]
    shifts = (in_order[:, :-1] - in_order[:, 1:]) * zi
    z = np.zeros((blocks.shape[0], len(zi)))
    for step, k in enumerate(order):
        block = blocks[:, k]
        out = block @ from_samples
        out += z @ from_states
        if step < n_blocks - 1:
            z = out[:, L:] + shifts[:, step]
        block[...] = out[:, :L]
    blocks += offsets * g


def bandpass(rec: Recording, lo: float = 8.0, hi: float = 30.0) -> Recording:
    """Zero-phase Butterworth bandpass, applied forward-backward per channel.

    4th-order design; shape and annotations are preserved.  The semantics are
    those of scipy's ``filtfilt(b, a, x, axis=1)`` with its defaults:
    each channel is extended at both ends by odd reflection of
    ``3 * max(len(a), len(b))`` = 27 samples, filtered forward from the
    step-response steady state scaled by its first sample, then backward
    from the same state scaled by the forward output's last sample, and the
    extension is cut off again.  A run of 27 samples or fewer raises
    ``ValueError``.

    The recurrence runs over blocks of `_BLOCK_LEN` = 64 samples as matrix
    products over all channels at once, in float64 (see `_block_matrices`
    and `_filter_blocks`).  The output is a view into one work buffer,
    which holds the extended run after as many copies of its first sample
    as make the length a multiple of `_BLOCK_LEN`; those copies leave the
    initial steady state as it is.
    """
    nyq = rec.sample_rate / 2.0
    if not 0.0 < lo < hi < nyq:
        raise ValueError(f"invalid band edges ({lo}, {hi}) for Nyquist {nyq}")
    b, a = _butter_bandpass(lo / nyq, hi / nyq)
    edge = 3 * max(len(a), len(b))
    x = rec.data
    n = x.shape[1]
    if n <= edge:
        raise ValueError(f"{n} samples are too few to filter: need more than {edge}")
    pad = -(n + 2 * edge) % _BLOCK_LEN
    start = pad + edge
    work = np.empty((x.shape[0], start + n + edge))
    work[:, start:start + n] = x
    work[:, pad:start] = 2 * x[:, :1] - x[:, edge:0:-1]
    work[:, start + n:] = 2 * x[:, -1:] - x[:, -2:-edge - 2:-1]
    work[:, :pad] = work[:, pad:pad + 1]
    blocks = work.reshape(x.shape[0], work.shape[1] // _BLOCK_LEN, _BLOCK_LEN)
    mats = _block_matrices(b, a)
    _filter_blocks(blocks, mats, backward=False)
    _filter_blocks(blocks, mats, backward=True)
    return Recording(list(rec.channel_names), rec.sample_rate, work[:, start:start + n],
                     list(rec.annotations))


def epoch_trials(rec: Recording) -> list[Epoch]:
    """Cut labeled trials into consecutive non-overlapping epochs.

    Each trial labeled by `LABEL_CODES` contributes `EPOCHS_PER_TRIAL`
    epochs of `EPOCH_S` seconds from its onset, all inheriting the trial
    label, in trial order.  Other codes (rest) are ignored.  Trials
    extending past the end of the data are skipped; the count is logged.
    Each ``Epoch.data`` is a view into ``rec.data``, not a copy: it keeps
    the recording alive and changes with it.
    """
    slice_len = int(round(EPOCH_S * rec.sample_rate))
    if slice_len < 1:
        raise ValueError(f"sample rate {rec.sample_rate} Hz gives empty {EPOCH_S} s epochs")
    epochs: list[Epoch] = []
    skipped = 0
    for ann in rec.annotations:
        label = LABEL_CODES.get(ann.code)
        if label is None:
            continue
        end = ann.onset + EPOCHS_PER_TRIAL * slice_len
        if end > rec.n_samples:
            skipped += 1
            continue
        for s in range(EPOCHS_PER_TRIAL):
            start = ann.onset + s * slice_len
            epochs.append(Epoch(rec.data[:, start:start + slice_len], label))
    if skipped:
        log.warning("skipped %d truncated trial(s) extending past end of data", skipped)
    return epochs


def split(epoch_labels: Sequence[str], seed: int,
          test_fraction: float = 0.2) -> tuple[list[int], list[int]]:
    """Seeded stratified partition of epochs, given by their labels, into
    (train, test) index lists, each in ascending order.

    Total test size is ``round(test_fraction * n)``, allocated per class by
    largest remainder and clamped so both classes appear on both sides.
    `test_fraction` must lie in (0, 1).  Deterministic given the seed; train
    and test together are exactly the indices ``0 .. n-1``.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    groups = _class_partition(epoch_labels)
    if len(groups) < 2:
        raise ValueError("need at least 2 classes to split")
    for lab, idx in groups.items():
        if len(idx) < 2:
            raise ValueError(f"class {lab!r} has fewer than 2 epochs")

    n = len(epoch_labels)
    total_test = int(round(test_fraction * n))
    ideal = {lab: test_fraction * len(idx) for lab, idx in groups.items()}
    counts = {lab: int(np.floor(ideal[lab])) for lab in groups}
    remainder = total_test - sum(counts.values())
    by_frac = sorted(groups, key=lambda lab: (counts[lab] - ideal[lab], lab))
    for lab in by_frac[:max(remainder, 0)]:
        counts[lab] += 1

    rng = np.random.default_rng(seed)
    test_idx: set[int] = set()
    for lab, idx in groups.items():  # both classes must appear on both sides
        count = min(max(counts[lab], 1), len(idx) - 1)
        test_idx.update(idx[p] for p in rng.permutation(len(idx))[:count])
    return [i for i in range(n) if i not in test_idx], sorted(test_idx)
