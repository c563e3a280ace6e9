"""EEG ingestion and preprocessing in numpy alone: EDF/EDF+ and CSV runs, the
zero-phase Butterworth bandpass, epochs of labeled trials and the seeded
stratified train/test split, with annotations in samples throughout.  Entry
points are `read_recording`, `read_recording_csv`, `bandpass`, `epoch_trials`
and `split`.
"""

from __future__ import annotations

import csv
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


def _parse_tals(buf: bytes, sample_rate: float) -> tuple[float | None, list[Annotation]]:
    """The onset in seconds of `buf`'s first TAL if that is a time-keeping
    TAL, ``+<onset>\\x14\\x14`` with no duration, else None; and its annotations."""
    start, annotations = None, []
    for n, tal in enumerate(buf.split(b"\x00")):
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
            onset_s = float(onset_b.decode("latin-1"))
            duration = float(dur_b.decode("latin-1")) * sample_rate
        except ValueError:
            raise ValueError(f"unknown annotation encoding: {tal!r}") from None
        onset = onset_s * sample_rate
        if not (np.isfinite(onset) and np.isfinite(duration)):
            raise ValueError(f"unknown annotation encoding: {tal!r}")
        if n == 0 and head[:1] in b"+-" and head == onset_b and len(fields) > 2 and not fields[1]:
            start = onset_s  # a signed onset, no duration and an empty first annotation
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
    return start, annotations


def read_recording(path: str | Path) -> Recording:
    """An EDF/EDF+ file in physical units, its 'EDF Annotations' signals decoded
    into sample-unit annotations.  The data signals must share one sample rate,
    the header size field read 256 · (signals + 1) and the file hold exactly the
    header and its record count of records (-1 reads every whole record).  EDF+D
    is rejected; in EDF+C record r must start with a time-keeping TAL at record
    0's onset plus r record durations, within 1e-6 s.  A breach is a ``ValueError``.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 256:
        raise ValueError("malformed header: file shorter than 256 bytes")
    if raw[192:197] == b"EDF+D":
        raise ValueError("EDF+D (discontinuous) recordings are not supported")
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
        # a field's block starts block_off * ns bytes into the signal headers
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
            start, found = _parse_tals(raw[rec_off + byte_lo:rec_off + byte_hi], sample_rate)
            annotations.extend(found)
            if raw[192:197] == b"EDF+C" and i == ann_idx[0]:
                if start is None:
                    raise ValueError(f"EDF+C record {r} does not start with a time-keeping TAL")
                if r == 0:
                    first = start
                elif abs(start - (first + r * duration)) > 1e-6:
                    raise ValueError(f"EDF+C record {r} starts at {start!r} s, "
                                     f"not {first + r * duration!r} s")
    annotations.sort(key=lambda a: (a.onset, a.code))
    return Recording(names, sample_rate, data, annotations)


def read_recording_csv(
    data_path: str | Path,
    annotation_path: str | Path | None = None,
    sample_rate: float = 160.0,
) -> Recording:
    """A CSV run: a header row of channel names, then one number per channel a
    row, blank lines skipped; the optional sidecar `annotation_path` holds
    ``onset,duration,code`` rows in samples.  A missing header, a data row that is
    not one number per channel, or an annotation row of fewer than three fields
    or whose onset and duration are not non-negative integers with the onset
    inside the data raises ``ValueError`` naming its line (and the sidecar).
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
                raise ValueError(f"line {reader.line_num}: expected {len(names)} numbers, "
                                 f"got {row}")
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
#: many poles, in `_ORDER` second-order sections of 2 states each.
_ORDER = 4
#: Samples per block of the block recurrence: the block matrices are built in
#: L steps and each block costs a (c, L) x (L, L + 8) product.
_BLOCK_LEN = 64


def _butter_bandpass(lo: float, hi: float) -> tuple[np.ndarray, float]:
    """Poles and gain of the digital Butterworth bandpass of order `_ORDER`, edges
    `lo`, `hi` as fractions of Nyquist, whose zeros are `_ORDER` at z = 1 and
    `_ORDER` at z = -1: the operations, in order, of scipy's ``butter(_ORDER,
    [lo, hi], "bandpass", output="zpk")``, so both give the same bytes."""
    m = np.arange(-_ORDER + 1, _ORDER, 2, dtype=float)
    p = -np.exp(1j * np.pi * m / (2 * _ORDER))  # analog lowpass, cutoff 1 rad/s
    warped = 4.0 * np.tan(np.pi * np.array([lo, hi]) / 2.0)
    bw, wo = float(warped[1] - warped[0]), float(np.sqrt(warped[0] * warped[1]))
    p_lp = p * bw / 2
    p_bp = np.concatenate((p_lp + np.sqrt(p_lp**2 - wo**2),
                           p_lp - np.sqrt(p_lp**2 - wo**2)))
    # 4.0**_ORDER: the analog zeros are _ORDER at 0 and _ORDER at infinity
    return (4.0 + p_bp) / (4.0 - p_bp), bw**_ORDER * np.real(4.0**_ORDER / np.prod(4.0 - p_bp))


def _sections(p: np.ndarray, k: float) -> np.ndarray:
    """The ``(_ORDER, 6)`` sections ``[b0, b1, b2, 1, a1, a2]`` of the poles `p`
    and gain `k`: one per conjugate pair ``q, q̄`` with ``a = [1, -(q + q̄), q·q̄]``,
    the gain in the first.  The `_ORDER // 2` pairs nearest z = 1 take the
    zeros at 1, ``b = [1, -2, 1]``, the others those at -1, ``b = [1, 2, 1]``,
    so that no section's states grow far past the signal."""
    # p holds two conjugate-closed halves, each as [q0, q1, q̄1, q̄0]
    q = p.reshape(2, _ORDER)[:, :_ORDER // 2].ravel()
    sos = np.zeros((_ORDER, 6))
    sos[:, :4] = [1.0, 2.0, 1.0, 1.0]
    sos[np.argsort(q.real)[_ORDER // 2:], 1] = -2.0
    sos[:, 4], sos[:, 5] = -2.0 * q.real, q.real**2 + q.imag**2
    sos[0, :3] *= k
    return sos


def _block_matrices(sos: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(Hᵀ, Oᵀ, R, Aᴸ, zi)`` of the direct-form-II-transposed sections `sos` for
    row-vector states over blocks of ``L = _BLOCK_LEN`` samples (Burrus 1972).  A
    step maps states ``z`` and input ``x`` to ``z·A + x·B`` and output ``z·C + x·D``;
    a block ``X`` (c, L) entered with states ``Z`` (c, m) leaves outputs ``X·Hᵀ +
    Z·Oᵀ`` and states ``Z·Aᴸ + X·R``; a constant unit input holds ``zi = zi·A + B``."""
    m, L = 2 * len(sos), _BLOCK_LEN
    # [[A, C], [B, D]]: one step from each unit state (rows 0..m-1) and a unit input
    step = np.eye(m + 1)
    x = step[:, m].copy()
    for j, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        y = b0 * x + step[:, 2 * j]
        step[:, 2 * j] = b1 * x - a1 * y + step[:, 2 * j + 1]
        step[:, 2 * j + 1] = b2 * x - a2 * y
        x = y
    step[:, m] = x
    # rows 0..m-1 start from unit states, row m from rest with a unit impulse
    zx = np.eye(m + 1)
    outputs, states = np.empty((L, m + 1)), np.empty((L, m))
    for k in range(L):
        zx = zx @ step
        outputs[k], states[k] = zx[:, m], zx[m, :m]
        zx[:, m] = 0.0
    h = outputs[:, m]  # impulse response
    lag = np.subtract.outer(np.arange(L), np.arange(L))
    ht = np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0).T
    zi = np.linalg.solve((np.eye(m) - step[:m, :m]).T, step[m, :m])
    # an impulse at sample j of a block reaches the block's end state after L - j steps
    return ht, outputs[:, :m].T, states[::-1], zx[:m, :m], zi


def _filter_blocks(blocks: np.ndarray, mats: tuple[np.ndarray, ...], backward: bool) -> None:
    """Filter the ``(c, n_blocks, L)`` array `blocks` in place, forward or backward
    in time, from the steady state for its first sample in that direction."""
    ht, ot, r, a_l, zi = mats
    if backward:  # blocks in reverse order, each read by the reversed matrices
        ht, ot, r = ht[::-1, ::-1], ot[:, ::-1], r[::-1]
    from_samples, from_states = np.hstack([ht, r]), np.hstack([ot, a_l])
    L = len(ht)
    order = range(blocks.shape[1] - 1, -1, -1) if backward else range(blocks.shape[1])
    z = blocks[:, order[0], -1 if backward else 0, None] * zi
    for k in order:
        block = blocks[:, k]
        out = block @ from_samples
        out += z @ from_states
        z = out[:, L:]
        block[...] = out[:, :L]


def bandpass(rec: Recording, lo: float = 8.0, hi: float = 30.0) -> Recording:
    """Zero-phase 4th-order Butterworth bandpass of every channel, in second-order
    sections, with the semantics of scipy's ``sosfiltfilt(sos, x, axis=1)`` at its
    defaults: each channel is extended at both ends by odd reflection of 27
    samples, filtered forward from the steady state scaled by its first sample,
    then backward from that state scaled by the forward output's last sample, and
    cut back.  Shape and annotations are kept; the data is a view into one work
    buffer.  A run of 27 samples or fewer raises ``ValueError``, and so does a band
    whose rounded sections ``[1, a1, a2]`` leave the stability triangle ``|a2| < 1,
    |a1| < 1 + a2`` (an edge very near 0 Hz or Nyquist).
    """
    nyq = rec.sample_rate / 2.0
    if not 0.0 < lo < hi < nyq:
        raise ValueError(f"invalid band edges ({lo}, {hi}) for Nyquist {nyq}")
    sos = _sections(*_butter_bandpass(lo / nyq, hi / nyq))
    a1, a2 = sos[:, 4], sos[:, 5]  # a2 = q·q̄ >= 0; no rounding below flips the sign
    if not ((a2 < 1.0) & (1.0 - np.abs(a1) + a2 > 0.0)).all():
        raise ValueError(f"band ({lo}, {hi}) Hz is too close to 0 Hz or to Nyquist for a "
                         f"stable filter at {rec.sample_rate} Hz")
    edge = 3 * (2 * _ORDER + 1)
    x = rec.data
    n = x.shape[1]
    if n <= edge:
        raise ValueError(f"{n} samples are too few to filter: need more than {edge}")
    # whole blocks: copies of the first sample go first and keep its steady state
    pad = -(n + 2 * edge) % _BLOCK_LEN
    start = pad + edge
    work = np.empty((x.shape[0], start + n + edge))
    work[:, start:start + n] = x
    work[:, pad:start] = 2 * x[:, :1] - x[:, edge:0:-1]
    work[:, start + n:] = 2 * x[:, -1:] - x[:, -2:-edge - 2:-1]
    work[:, :pad] = work[:, pad:pad + 1]
    blocks = work.reshape(x.shape[0], work.shape[1] // _BLOCK_LEN, _BLOCK_LEN)
    mats = _block_matrices(sos)
    _filter_blocks(blocks, mats, backward=False)
    _filter_blocks(blocks, mats, backward=True)
    return Recording(list(rec.channel_names), rec.sample_rate, work[:, start:start + n],
                     list(rec.annotations))


def epoch_trials(rec: Recording) -> tuple[list[Epoch], int]:
    """The epochs of the labeled trials, in trial order, and the number of labeled
    trials skipped because they run past the data.  A trial labeled by
    `LABEL_CODES` gives `EPOCHS_PER_TRIAL` epochs of `EPOCH_S` seconds from its
    onset, with its label; other codes are rest.  Each ``Epoch.data`` is a view
    into ``rec.data``: it keeps the recording alive and changes with it."""
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
    return epochs, skipped


def split(epoch_labels: Sequence[str], seed: int,
          test_fraction: float = 0.2) -> tuple[list[int], list[int]]:
    """Seeded stratified split of epochs, given by their labels, into (train, test)
    index lists, each ascending, together exactly ``0 .. n-1``.  The test side
    takes ``round(test_fraction * n)``, shared among the classes by largest
    remainder and clamped so every class is on both sides.  `test_fraction` must
    lie in (0, 1), and each of at least 2 classes needs 2 epochs."""
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
