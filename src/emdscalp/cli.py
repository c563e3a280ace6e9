"""Command-line surface: prepare, train-eval, select-channels, emd, plot, report.

Configuration lives in a flat versioned ``key = value`` file (grammar in the
README); command-line flags override file keys.  All outputs are plain text
(CSV/JSON/SVG) and byte-deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np

from . import montage, relevance, signal, spdgeom, stats, transport

CONFIG_VERSION = 1
CHANNEL_CONFIGS = ("all64", "mi21", "feat21")
METRICS = ("euclidean", "manhattan")
MASS_MODES = ("raw", "normalized")


@dataclass(frozen=True)
class ExperimentConfig:
    version: int = CONFIG_VERSION
    dataset_root: str = "."
    subjects: tuple[int, ...] = ()
    runs: tuple[int, ...] = (3, 4, 7, 8, 11, 12)
    input_format: str = "edf"  # edf | csv
    sample_rate: float = 160.0  # csv input only; edf carries its own
    band_lo: float = 8.0
    band_hi: float = 30.0
    channel_config: str = "all64"  # all64 | mi21 | feat21
    relevance_source: str = "riemannian"  # riemannian | external:<name>
    relevance_pattern: str = ""  # path with {subject}, external sources
    class_mode: str = "pooled"  # pooled | per_class_union
    seed: int = 42
    test_fraction: float = 0.2
    shrinkage: float = 0.05
    target_k: int = 21
    metric: str = "euclidean"  # euclidean | manhattan
    mass: str = "raw"  # raw | normalized
    layout: str = ""  # mapping file path; empty = packaged default
    cache_dir: str = "cache"
    output_dir: str = "out"

    def validate(self) -> None:
        """Raise a ``ValueError`` naming the first key with a bad value."""
        if self.version != CONFIG_VERSION:
            raise ValueError(f"unsupported config version {self.version}")
        for key, allowed in (("channel_config", CHANNEL_CONFIGS),
                             ("input_format", ("edf", "csv")),
                             ("class_mode", ("pooled", "per_class_union")),
                             ("metric", METRICS), ("mass", MASS_MODES)):
            if getattr(self, key) not in allowed:
                raise ValueError(f"{key} must be one of {allowed}, got {getattr(self, key)!r}")
        external = self.relevance_source.startswith("external:")
        if not external and self.relevance_source != "riemannian":
            raise ValueError(f"unknown relevance_source {self.relevance_source!r}")
        if self.channel_config == "feat21" and external and not self.relevance_pattern:
            raise ValueError("feat21 with an external source requires relevance_pattern")
        try:
            self.relevance_pattern.format(subject=1)
        except (LookupError, ValueError, TypeError, AttributeError) as exc:
            raise ValueError(f"relevance_pattern {self.relevance_pattern!r} cannot take a "
                             f"subject id: {type(exc).__name__}: {exc}") from None
        # NaN fails every comparison, so it is rejected too
        for key, ok, rule in (
            ("subjects", all(s >= 1 for s in self.subjects)
             and len(set(self.subjects)) == len(self.subjects), "distinct ids >= 1"),
            ("runs", all(r >= 1 for r in self.runs)
             and len(set(self.runs)) == len(self.runs), "distinct ids >= 1"),
            ("sample_rate", 0.0 < self.sample_rate < math.inf, "positive and finite"),
            ("band_lo", 0.0 < self.band_lo < self.band_hi < math.inf,
             f"in (0, band_hi = {self.band_hi!r}) with a finite band_hi"),
            ("band_hi", self.input_format != "csv" or self.band_hi < self.sample_rate / 2,
             f"below Nyquist {self.sample_rate / 2} of csv input at sample_rate "
             f"{self.sample_rate!r}"),
            ("seed", self.seed >= 0, ">= 0"),
            ("test_fraction", 0.0 < self.test_fraction < 1.0, "in (0, 1)"),
            ("shrinkage", 0.0 <= self.shrinkage < 1.0, "in [0, 1)"),
            ("target_k", self.target_k >= 1, ">= 1"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {rule}, got {getattr(self, key)!r}")


#: Each config key's declared type: ``int``, ``float``, ``str`` or ``tuple[int, ...]``.
_KEY_TYPES = get_type_hints(ExperimentConfig)
_PATH_KEYS = {"dataset_root", "cache_dir", "output_dir", "layout", "relevance_pattern"}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the flat ``key = value`` grammar (``#`` comments, blank lines)."""
    out: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw_line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def load_config(path: str | Path | None, overrides: dict[str, object] | None = None) -> ExperimentConfig:
    """Build a config from an optional file plus flag overrides."""
    values: dict[str, object] = {}
    base = Path(".")
    if path is not None:
        base = Path(path).resolve().parent
        with _reading(path):
            for key, sval in parse_config_text(Path(path).read_text(encoding="utf-8")).items():
                kind = _KEY_TYPES.get(key)
                if kind is None:
                    raise ValueError(f"unknown config key {key!r}")
                try:
                    values[key] = (tuple(int(v) for v in sval.split(",") if v.strip())
                                   if kind == tuple[int, ...] else kind(sval))
                except ValueError as exc:
                    raise ValueError(f"config key {key!r}: {exc}") from None
    cfg = ExperimentConfig(**values)
    # relative paths resolve against the config file's directory, brace-escaped in a template
    resolved, template_base = {}, str(base).replace("{", "{{").replace("}", "}}")
    for key in _PATH_KEYS:
        val = getattr(cfg, key)
        if val and not Path(val.split("{", 1)[0] or ".").is_absolute():
            resolved[key] = str(Path(template_base if key == "relevance_pattern" else base) / val)
    if resolved:
        cfg = replace(cfg, **resolved)
    if overrides:
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    cfg.validate()
    return cfg


def _load_layout(cfg: ExperimentConfig) -> montage.GridLayout:
    if not cfg.layout:
        return montage.default_layout()
    with _reading(cfg.layout):
        return montage.load_grid_layout_file(cfg.layout)


# ---------------------------------------------------------------------------
# JSON files and input errors

def _write_utf8(path: Path, text: str) -> None:
    montage._write_file(path, lambda fh: fh.write(text.encode("utf-8")))


def _write_json(path: Path, doc) -> None:
    _write_utf8(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


@contextmanager
def _reading(path: str | Path):
    """Re-raise a failure to read or parse the one input file `path` as a
    ``ValueError`` ``<path>: <Type>: <reason>``; ``FileNotFoundError`` passes."""
    try:
        yield
    except FileNotFoundError:
        raise
    except (OSError, EOFError, ValueError, KeyError, TypeError, AttributeError, OverflowError,
            csv.Error) as exc:
        raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _read_json(path: Path) -> dict:
    """The JSON object in `path`; any other content is a ``ValueError``
    that starts with the path."""
    with _reading(path):
        return montage._json_object(path.read_text(encoding="utf-8"), "document")


# ---------------------------------------------------------------------------
# epoch cache

def _subject_tag(subject: int) -> str:
    return f"S{subject:03d}"


#: Cache layout version; ``read_epoch_cache`` accepts this one only.
CACHE_FORMAT_VERSION = 5
#: dtype of ``epochs.npy``: little-endian float64 round-trips every bit.
_EPOCH_DTYPE = np.dtype("<f8")


def _check_cache(index: dict, covs: np.ndarray) -> None:
    """Raise a ``ValueError`` unless `index` holds ``labels`` and
    ``channel_names`` as JSON arrays of strings and `covs` is ``<f8`` of shape
    ``(len(labels), d, d)`` for d channel names, passing ``_check_covariances``."""
    for key in ("labels", "channel_names"):
        for j, value in enumerate(montage._json_value(index.get(key), "array", key)):
            montage._json_value(value, "string", f"{key}[{j}]")
    dim = len(index["channel_names"])
    shape = len(index["labels"]), dim, dim
    if (covs.dtype.str, covs.shape) != (_EPOCH_DTYPE.str, shape):
        raise ValueError(f"epochs are {covs.dtype.str} {covs.shape}; {shape[0]} labels and "
                         f"{dim} channel names need {_EPOCH_DTYPE.str} {shape}")
    _check_covariances(covs)


def _check_covariances(covs: np.ndarray) -> None:
    """Raise a ``ValueError`` naming the first epoch of `covs` whose
    covariance has a non-finite entry or zero trace, which no shrinkage mends."""
    finite = np.isfinite(covs).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"epoch {int(np.argmin(finite))}'s covariance has a non-finite entry")
    with np.errstate(over="ignore"):  # an overflowing trace is not zero
        zero = np.trace(covs, axis1=1, axis2=2) == 0
    if zero.any():
        raise ValueError(f"epoch {int(np.argmax(zero))}'s covariance has zero trace")


def write_epoch_cache(cache_dir: Path, subject: int, covs: np.ndarray,
                      labels: list[str], channel_names: list[str]) -> Path:
    """Store one subject's epochs, the ``(n_epochs, d, d)`` array `covs` of
    their ``spdgeom.covariance`` with one of `labels` each and d
    `channel_names`, as ``epochs.npy`` plus ``index.json``; return the
    subject directory.  Any old index goes first and the new one last, so no
    valid index ever stands over other data.  What ``_check_cache`` rejects
    raises its ``ValueError``, naming the subject directory, before any file
    is written or removed.
    """
    subj_dir = cache_dir / _subject_tag(subject)
    index = {"channel_names": channel_names, "format_version": CACHE_FORMAT_VERSION,
             "labels": labels}
    covs = np.asarray(covs, dtype=_EPOCH_DTYPE)
    with _reading(subj_dir):
        _check_cache(index, covs)
    index_path = subj_dir / "index.json"
    index_path.unlink(missing_ok=True)
    montage._write_file(subj_dir / "epochs.npy", lambda fh: np.save(fh, covs, allow_pickle=False))
    _write_json(index_path, index)
    return subj_dir


def _read_npy(path: Path) -> np.ndarray:
    """Load a ``.npy`` file without pickle support, under `_reading`; bytes
    past the header and data are an error too."""
    with _reading(path), open(path, "rb") as fh:
        data = np.load(fh, allow_pickle=False)
        read_bytes, file_bytes = fh.tell(), os.fstat(fh.fileno()).st_size
        if file_bytes != read_bytes:
            raise ValueError(f"{file_bytes} bytes, header and data take {read_bytes}")
    return data


def read_epoch_cache(cache_dir: Path, subject: int) -> tuple[np.ndarray, dict]:
    """Load a subject written by ``write_epoch_cache``: its unshrunk epoch
    covariances and its index.  Raises ``FileNotFoundError`` for a missing
    file, a ``ValueError`` naming the file for an unsupported format version,
    an unreadable array or one whose size disagrees with its header, and
    ``_check_cache``'s, naming the subject directory."""
    subj_dir = cache_dir / _subject_tag(subject)
    index_path = subj_dir / "index.json"
    index = _read_json(index_path)
    with _reading(index_path):
        version = montage._json_value(index.get("format_version"), "integer", "format_version")
        if version != CACHE_FORMAT_VERSION:
            raise ValueError(f"cache format_version {version!r} is not "
                             f"{CACHE_FORMAT_VERSION}; re-run prepare")
    data = _read_npy(subj_dir / "epochs.npy")
    with _reading(subj_dir):
        _check_cache(index, data)
    return data, index


# ---------------------------------------------------------------------------
# derived-result memo

#: Part of every memo key; bump it when ``spdgeom``'s numerics or Fréchet defaults change.
MEMO_VERSION = 7


class DerivedMemo:
    """A disk cache of one subject's ``spdgeom.mdm_fit`` and ``backward_elimination``.

    Entries live in ``<cache_dir>/S<id>/derived/`` under content keys: a
    model's key hashes the exact ``<f8`` bytes, count and shapes of its
    covariances plus its labels; a trace's key hashes its centroids plus
    ``target_k``.  Other inputs give other keys, so no entry can go stale.  A
    corrupt entry raises a ``ValueError`` naming its file, never silently recomputed.
    """

    def __init__(self, cache_dir: Path, subject: int):
        self.root = cache_dir / _subject_tag(subject) / "derived"

    @staticmethod
    def _key(kind: str, mats: Sequence[np.ndarray], *params) -> str:
        h = hashlib.sha256(repr((MEMO_VERSION, kind, len(mats), *params)).encode())
        for m in mats:  # matrix by matrix: no stacked copy
            m = np.ascontiguousarray(m, dtype=_EPOCH_DTYPE)
            h.update(repr(m.shape).encode())
            h.update(m)
        return h.hexdigest()

    def mdm_fit(self, covs: np.ndarray, labels: list[str]) -> spdgeom.MDMModel:
        """``spdgeom.mdm_fit`` of `covs` and `labels`, computed at most once; the
        entry is the ``(n_classes, d, d)`` stack of its centroids."""
        path = self.root / f"model-{self._key('model', covs, tuple(labels))}.npy"
        try:
            stack = _read_npy(path)
        except FileNotFoundError:
            model = spdgeom.mdm_fit(covs, labels)
            montage._write_file(path, lambda fh: np.save(
                fh, np.asarray(model.centroids, dtype=_EPOCH_DTYPE), allow_pickle=False))
            return model
        classes = tuple(stats._class_partition(labels))
        shape = len(classes), covs.shape[-1], covs.shape[-1]
        with _reading(path):
            if (stack.dtype.str, stack.shape) != (_EPOCH_DTYPE.str, shape):
                raise ValueError(f"model is {stack.dtype.str} {stack.shape}, "
                                 f"expected {_EPOCH_DTYPE.str} {shape}")
            spdgeom._check_square_symmetric(stack, "centroid {j}", spd=True)  # as computed means
        return spdgeom.MDMModel(classes=classes, centroids=tuple(stack))

    def elimination(self, centroids: Sequence[np.ndarray],
                    target_k: int) -> spdgeom.SelectionTrace:
        """``spdgeom.backward_elimination`` of `centroids`, computed at most once."""
        path = self.root / f"trace-{self._key('trace', centroids, int(target_k))}.json"
        try:
            with _reading(path):
                trace = spdgeom.trace_from_json(path.read_text(encoding="utf-8"))
                shape = len(trace.removal_order) + len(trace.final_subset), len(trace.final_subset)
                if shape != (len(centroids[0]), target_k):
                    raise ValueError(f"trace reduces {shape[0]} channels to {shape[1]}, not "
                                     f"{len(centroids[0])} to {target_k}")
        except FileNotFoundError:
            trace = spdgeom.backward_elimination(centroids, target_k)
            _write_utf8(path, spdgeom.trace_to_json(trace))
        return trace


# ---------------------------------------------------------------------------
# channel selection plumbing

def _subset_for_config(cfg: ExperimentConfig, layout: montage.GridLayout,
                       lookup: dict[str, int], subject: int,
                       train_covs: np.ndarray, train_labels: list[str],
                       memo: DerivedMemo
                       ) -> tuple[list[int], list[str] | None, spdgeom.SelectionTrace | None]:
    """One subject's channel selection: the channel indices to train on, in
    order; for ``feat21`` also their sorted montage names (channels outside
    the montage left out), and for the riemannian source the elimination
    trace.  `lookup` maps each montage electrode to its channel index."""
    if cfg.channel_config == "all64":
        return list(range(train_covs.shape[-1])), None, None
    if cfg.channel_config == "mi21":
        missing = [c for c in relevance.MI_BASELINE_CHANNELS if c not in lookup]
        if missing:
            raise ValueError(f"recording lacks baseline channels: {missing}")
        return sorted(lookup[c] for c in relevance.MI_BASELINE_CHANNELS), None, None
    trace = None
    if cfg.relevance_source == "riemannian":
        trace = memo.elimination(memo.mdm_fit(train_covs, train_labels).centroids, cfg.target_k)
        subset = sorted(trace.final_subset)
    else:
        path = cfg.relevance_pattern.format(subject=subject)
        with _reading(path):
            scores = relevance.ingest_external(path, layout)
            selected = relevance.top_k(scores, cfg.target_k, class_mode=cfg.class_mode)
            missing = [c for c in selected if c not in lookup]
            if missing:
                raise ValueError(f"relevance names not present in recording: {sorted(missing)}")
        subset = sorted(lookup[c] for c in selected)
    names = {i: name for name, i in lookup.items()}
    return subset, sorted(names[i] for i in subset if i in names), trace


def _read_map(path: str, order: int | None) -> montage.SpatialMap:
    """The spatial map in `path`, of grid order `order` unless that is None."""
    with _reading(path):
        smap = montage.load_spatial_map(path)
        if order is not None and smap.n != order:
            raise ValueError(f"grid order {smap.n}, expected {order}")
    return smap


def _cohort_maps(counts: dict[str, int], layout: montage.GridLayout, k: int
                 ) -> tuple[montage.SpatialMap, montage.SpatialMap]:
    resolved = zip(layout.resolve_all(counts), counts.values())
    top = relevance._ranked({n: c for n, c in resolved if c > 0}, layout.names)[:k]
    return montage.binary_map(top, layout), montage.weighted_map(counts, layout)


# ---------------------------------------------------------------------------
# SVG rendering

#: Side of one grid cell and width of the border around the grid, in pixels.
SVG_CELL, SVG_MARGIN = 40, 20


def _escape(text: str) -> str:
    """`text` as SVG character data: ``&``, ``<`` and ``>`` as entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_map_svg(smap: montage.SpatialMap, layout: montage.GridLayout) -> str:
    """Deterministic SVG: one marker per montage electrode, scaled by mass."""
    if smap.n != layout.n:
        raise ValueError(f"map order {smap.n} does not match layout order {layout.n}")
    size = 2 * SVG_MARGIN + layout.n * SVG_CELL
    peak = float(smap.mass.max())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for e in layout.electrodes:
        cx = SVG_MARGIN + (e.col + 0.5) * SVG_CELL
        cy = SVG_MARGIN + (e.row + 0.5) * SVG_CELL
        m = float(smap.mass[e.row, e.col])
        rel = m / peak if peak > 0 else 0.0
        if m > 0:
            radius = 6.0 + 10.0 * rel
            opacity = 0.25 + 0.75 * rel
            parts.append(
                f'<circle class="active" cx="{cx:.2f}" cy="{cy:.2f}" r="{radius:.2f}" '
                f'fill="#1f6fb4" fill-opacity="{opacity:.3f}" stroke="#17375e"/>'
            )
        else:
            parts.append(
                f'<circle class="inactive" cx="{cx:.2f}" cy="{cy:.2f}" r="6.00" '
                f'fill="none" stroke="#9aa0a6"/>'
            )
        parts.append(
            f'<text x="{cx:.2f}" y="{cy + 3.0:.2f}" font-size="7" '
            f'text-anchor="middle" font-family="sans-serif">{_escape(e.name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def _run_path(cfg: ExperimentConfig, subject: int, run: int) -> Path:
    ext = "edf" if cfg.input_format == "edf" else "csv"
    tag = _subject_tag(subject)
    return Path(cfg.dataset_root) / tag / f"{tag}R{run:02d}.{ext}"


def _prepare_subject(cfg: ExperimentConfig, cache_dir: Path, subject: int) -> tuple[str, int, int]:
    """Epoch and cache one subject's runs, skipping absent files; return its
    tag, epoch count and skipped-trial count.

    Every run must hold only finite samples, give epoch covariances that
    pass ``_check_covariances`` and carry the first run's channel names, in
    order, and its sample rate; otherwise a ``ValueError`` starts with the
    file's path.  A subject with no run holding a labeled trial fails too.
    Any earlier cache of the subject, and its derived-result memo, is
    invalidated first, so a subject that fails here is not read from a stale
    cache by later commands.
    """
    tag = _subject_tag(subject)
    derived = DerivedMemo(cache_dir, subject).root
    with _reading(cache_dir / tag):
        (cache_dir / tag / "index.json").unlink(missing_ok=True)
        if derived.exists():
            shutil.rmtree(derived)
    covs: list[np.ndarray] = []  # one (n_epochs, c, c) array per run
    labels: list[str] = []
    skipped = 0
    first: tuple[Path, list[str], float] | None = None
    for run in cfg.runs:
        path = _run_path(cfg, subject, run)
        if not path.exists():
            continue
        ann = path.with_name(path.stem + "_annotations.csv")
        with _reading(path):
            rec = (signal.read_recording(path) if cfg.input_format == "edf" else
                   signal.read_recording_csv(path, ann if ann.exists() else None,
                                             sample_rate=cfg.sample_rate))
            if first is None:
                first = (path, rec.channel_names, rec.sample_rate)
            elif (rec.channel_names, rec.sample_rate) != first[1:]:
                raise ValueError(f"has channels {rec.channel_names} at {rec.sample_rate} Hz, "
                                 f"but {first[0]} has {first[1]} at {first[2]} Hz")
            if not np.isfinite(rec.data).all():
                raise ValueError("holds non-finite samples")
            rec = signal.bandpass(rec, cfg.band_lo, cfg.band_hi)
            epochs, run_skipped = signal.epoch_trials(rec)
            skipped += run_skipped
            if epochs:
                with np.errstate(over="ignore", invalid="ignore"):  # reported next
                    covs.append(spdgeom.covariance([e.data for e in epochs]))
                _check_covariances(covs[-1])
        labels += [e.label for e in epochs]
        # the epochs are views into the recording: free both before the next read
        del rec, epochs
    if not covs:
        raise ValueError(f"no usable run: none of runs {list(cfg.runs)} exists and holds "
                         "a labeled trial")
    write_epoch_cache(cache_dir, subject, np.concatenate(covs), labels, first[1])
    return tag, len(labels), skipped


def cmd_prepare(cfg: ExperimentConfig) -> dict:
    cache_dir = Path(cfg.cache_dir)
    missing = sorted(str(path) for subject in cfg.subjects for run in cfg.runs
                     if not (path := _run_path(cfg, subject, run)).exists())
    if missing:
        print(json.dumps({"warning": "partial cohort", "missing": missing}), file=sys.stderr)
    # one subject at a time: each holds its whole recordings
    done, failed = _each_subject(cfg, "prepare", lambda subject: _prepare_subject(
        cfg, cache_dir, subject), concurrent=False)
    return {"cached": {tag: n for tag, n, _ in done}, "failed_subjects": failed,
            "missing": missing, "skipped_trials": {tag: k for tag, _, k in done}}


def _each_subject(cfg: ExperimentConfig, command: str, run_one, *,
                  concurrent: bool) -> tuple[list, list[str]]:
    """Apply ``run_one`` to every configured subject, in subject order.

    A subject whose input or cache is missing or corrupt, or whose Fréchet
    mean does not converge, is reported on stderr and skipped; the run
    continues.  Returns the results and the failed subject tags; raises only
    when the config lists no subject or none completes.  With `concurrent`,
    the subjects run on a pool of one thread per subject, up to the usable
    CPUs (``spdgeom.mdm_fit`` then fits its classes on the subject's thread);
    results, failures and stderr keep subject order, and any other exception
    is the first in subject order, raised once no subject is left running.
    """
    if not cfg.subjects:
        raise ValueError("config lists no subjects")
    subjects = sorted(cfg.subjects)

    def attempt(subject: int) -> tuple[object, str | None]:
        try:
            return run_one(subject), None
        except (FileNotFoundError, spdgeom.FrechetMeanError, ValueError) as exc:
            return None, f"{type(exc).__name__}: {exc}"

    workers = min(len(subjects), spdgeom._usable_cpus()) if concurrent else 1
    if workers > 1:
        # map cancels the subjects not started once one raises; `with` waits for the rest
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(attempt, subjects))
    else:
        outcomes = [attempt(subject) for subject in subjects]
    results = [result for result, error in outcomes if error is None]
    failed = {_subject_tag(subject): error
              for subject, (_, error) in zip(subjects, outcomes) if error is not None}
    if not results:
        raise ValueError(f"no subject completed {command}; failures: {failed}")
    if failed:
        print(json.dumps({"warning": "subjects failed", "failed": failed}),
              file=sys.stderr)
    return results, sorted(failed)


_Part = tuple[np.ndarray, list[str], list[int]]


def _read_split(cfg: ExperimentConfig, layout: montage.GridLayout, cache_dir: Path,
                subject: int) -> tuple[dict[str, int], _Part, _Part]:
    """A subject's channel index by montage electrode (channels outside the
    montage left out), then the shrunk covariances, one ``(n, d, d)`` array,
    labels and cache epoch numbers of its training and of its test epochs.
    Channel names that name one electrode twice, or labels that cannot be
    split, raise a ``ValueError`` that starts with the path of ``index.json``.

    The subject is held as one copy: the array read from the cache is shrunk
    in place and its rows permuted in place into the training epochs,
    grouped by class in sorted-label (``stats._class_partition``) order and
    ascending within a class (so ``spdgeom.mdm_fit`` fits each class on a view), then
    the test epochs, ascending.  Both parts are views of that array."""
    covs, index = read_epoch_cache(cache_dir, subject)
    labels = index["labels"]
    spdgeom._shrink_in_place(covs, cfg.shrinkage)
    with _reading(cache_dir / _subject_tag(subject) / "index.json"):
        names = index["channel_names"]
        kept = [i for i, name in enumerate(names) if name in layout]
        lookup = dict(zip(layout.resolve_all(names[i] for i in kept), kept))
        train, test = signal.split(labels, cfg.seed, cfg.test_fraction)
    train.sort(key=labels.__getitem__)  # stable: by class, ascending within a class
    _permute_rows(covs, train + test)
    n = len(train)
    return (lookup, (covs[:n], [labels[i] for i in train], train),
            (covs[n:], [labels[i] for i in test], test))


def _permute_rows(rows: np.ndarray, order: list[int]) -> None:
    """Move row ``order[k]`` of `rows` to row k, in place: each cycle of the
    permutation is followed with one row held aside."""
    done = [False] * len(order)
    for start in range(len(order)):
        if done[start] or order[start] == start:
            continue
        held, k = rows[start].copy(), start
        while order[k] != start:
            rows[k] = rows[order[k]]
            done[k], k = True, order[k]
        rows[k], done[k] = held, True


@contextmanager
def _naming_epochs(cache_dir: Path, subject: int, epochs: list[int]):
    """Rename ``covariance j`` of a split part (no other matrix) in a `MatrixError`
    to cache ``epoch epochs[j]``, under `_reading` of the subject's ``index.json``."""
    try:
        yield
    except spdgeom.MatrixError as exc:
        if not exc.what.startswith("covariance {j}"):
            raise
        exc.rename(epochs[exc.index],
                   exc.what.replace("covariance {j}", "epoch {j}'s covariance", 1))
        with _reading(cache_dir / _subject_tag(subject) / "index.json"):
            raise


def _write_trace(out_dir: Path, subject: int, trace: spdgeom.SelectionTrace) -> None:
    _write_utf8(out_dir / f"trace_{_subject_tag(subject)}.json",
                spdgeom.trace_to_json(trace) + "\n")


def _write_cohort(out_dir: Path, model: str, selections: dict[str, list[str]]
                  ) -> tuple[str, dict[str, int]]:
    """Write ``cohort_<tag>.json``; return the tag and the channel counts."""
    counts = relevance.aggregate_cohort(selections)
    tag = model.replace("external:", "")
    _write_json(out_dir / f"cohort_{tag}.json", {
        "model": model, "subjects": sorted(selections), "selections": selections,
        "counts": counts})
    return tag, counts


def _train_eval_subject(cfg: ExperimentConfig, layout: montage.GridLayout,
                        cache_dir: Path, out_dir: Path, subject: int
                        ) -> tuple[dict, list[str] | None]:
    """One subject's ``rows.csv`` row, and for ``feat21`` its selection's montage names."""
    lookup, (train_covs, train_labels, train_epochs), (test_covs, test_labels, test_epochs) = \
        _read_split(cfg, layout, cache_dir, subject)
    memo = DerivedMemo(cache_dir, subject)
    with _naming_epochs(cache_dir, subject, train_epochs):
        subset, names, trace = _subset_for_config(
            cfg, layout, lookup, subject, train_covs, train_labels, memo
        )
        if cfg.channel_config != "all64":
            train_covs, test_covs = (spdgeom.restrict_channels(c, subset)
                                     for c in (train_covs, test_covs))
        model = memo.mdm_fit(train_covs, train_labels)
    with _naming_epochs(cache_dir, subject, test_epochs):
        preds = spdgeom.mdm_predict(model, test_covs)
    ev = stats.evaluate(preds, test_labels)
    chance = stats.chance_level(test_labels)
    row = {
        "subject": subject,
        "channel_config": cfg.channel_config,
        "relevance_source": cfg.relevance_source,
        "n_channels": len(subset),
        "n_train": len(train_labels),
        "n_test": ev.n_test,
        "chance": chance,
        "overall": ev.overall,
        "overall_macro": ev.overall_macro,
    }
    for c in model.classes:
        row[f"recall_{c}"] = ev.per_class_recall[c]
        row[f"support_{c}"] = ev.support[c]
    if trace is not None:
        _write_trace(out_dir, subject, trace)
    return row, names


def cmd_train_eval(cfg: ExperimentConfig) -> dict:
    layout = _load_layout(cfg)
    cache_dir = Path(cfg.cache_dir)
    out_dir = Path(cfg.output_dir)
    done, failed = _each_subject(cfg, "train-eval", lambda subject: _train_eval_subject(
        cfg, layout, cache_dir, out_dir, subject), concurrent=True)
    rows = [row for row, _ in done]
    selections = {_subject_tag(row["subject"]): names for row, names in done
                  if names is not None}
    _write_rows(out_dir, rows)
    if selections:  # feat21
        tag, counts = _write_cohort(out_dir, cfg.relevance_source, selections)
        bmap, wmap = _cohort_maps(counts, layout, cfg.target_k)
        montage.save_spatial_map(bmap, out_dir / f"map_{tag}_binary_top{cfg.target_k}.csv")
        montage.save_spatial_map(wmap, out_dir / f"map_{tag}_weighted_counts.csv")
    return {"rows": len(rows), "failed_subjects": failed, "output_dir": str(out_dir)}


def _write_rows(out_dir: Path, rows: list[dict]) -> None:
    """``rows.csv`` takes its columns from the first row; a later row's
    missing columns are left empty and its extra ones dropped."""
    header = list(rows[0])
    _write_csv(out_dir / "rows.csv", [header, *([row.get(k, "") for k in header]
                                               for row in rows)])
    _write_json(out_dir / "rows.json", rows)


def _write_csv(path: Path, rows: list[list]) -> None:
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    _write_utf8(path, text.getvalue())


def cmd_select_channels(cfg: ExperimentConfig) -> dict:
    """The channel selection of ``train-eval`` with ``feat21`` and the
    riemannian source, without the classifier on the selected channels."""
    cfg = replace(cfg, channel_config="feat21", relevance_source="riemannian")
    out_dir = Path(cfg.output_dir)
    layout = _load_layout(cfg)
    cache_dir = Path(cfg.cache_dir)

    def select(subject: int) -> tuple[str, list[str]]:
        lookup, (covs, labels, epochs), _ = _read_split(cfg, layout, cache_dir, subject)
        with _naming_epochs(cache_dir, subject, epochs):
            _, names, trace = _subset_for_config(cfg, layout, lookup, subject, covs, labels,
                                                 DerivedMemo(cache_dir, subject))
        _write_trace(out_dir, subject, trace)
        return _subject_tag(subject), names

    done, failed = _each_subject(cfg, "select-channels", select, concurrent=True)
    _write_cohort(out_dir, "riemannian", dict(done))
    return {"subjects": len(done), "failed_subjects": failed,
            "output_dir": str(out_dir)}


def cmd_emd(cfg: ExperimentConfig, map_args: list[str], cohort_args: list[str],
            baseline_map: str | None) -> dict:
    layout = _load_layout(cfg)
    out_dir = Path(cfg.output_dir)
    # one baseline for both columns: rebalancing or normalizing makes a
    # uniform-weighted baseline equal to the binary one
    # (cohort maps are drawn on the layout, so with cohorts it fixes the order)
    base = (_read_map(baseline_map, layout.n if cohort_args else None) if baseline_map
            else relevance.mi_baseline(layout))

    def parse_named(args: list[str]) -> list[list[str]]:
        for item in args:
            if "=" not in item:
                raise ValueError(f"expected NAME=PATH, got {item!r}")
        return [item.split("=", 1) for item in args]

    maps, cohorts = parse_named(map_args), parse_named(cohort_args)
    names = [name for name, _ in maps + cohorts]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"model {name!r} is given twice")

    def score(p: montage.SpatialMap, q: montage.SpatialMap) -> float:
        if cfg.mass == "raw":  # both at the built-in baseline's total
            p, q = transport.rebalance(p, q, float(len(relevance.MI_BASELINE_CHANNELS)))
        return transport.emd(p, q, metric=cfg.metric, mass_mode=cfg.mass).distance

    results = [{"model": name, "emd_binary": score(_read_map(path, base.n), base),
                "emd_weighted": None} for name, path in maps]
    for name, path in cohorts:
        doc = _read_json(Path(path))
        with _reading(path):
            counts = montage._json_value(doc.get("counts"), "object", "counts")
            for channel, count in counts.items():
                montage._json_value(count, "integer", f"counts[{channel}]")
            if not any(count > 0 for count in counts.values()):
                raise ValueError("counts must hold at least one positive count")
            bmap, wmap = _cohort_maps(counts, layout, cfg.target_k)
        results.append({"model": name, "emd_binary": score(bmap, base),
                        "emd_weighted": score(wmap, base)})
    if not results:
        raise ValueError("no model maps given; use --maps and/or --cohorts")
    results.sort(key=lambda r: (r["emd_binary"], r["model"]))
    for rank, row in enumerate(results, start=1):
        row["rank"] = rank

    _write_csv(out_dir / "emd_table.csv", [["model", "rank", "emd_binary", "emd_weighted"]] + [
        [row["model"], row["rank"], repr(row["emd_binary"]),
         "" if row["emd_weighted"] is None else repr(row["emd_weighted"])]
        for row in results])
    _write_json(out_dir / "emd_table.json", results)
    return {"models": len(results), "output_dir": str(out_dir)}


def cmd_plot(cfg: ExperimentConfig, map_path: str, out_path: str) -> dict:
    layout = _load_layout(cfg)
    svg = render_map_svg(_read_map(map_path, layout.n), layout)
    _write_utf8(Path(out_path), svg)
    return {"out": str(Path(out_path))}


def cmd_report(cfg: ExperimentConfig, row_files: list[str]) -> dict:
    cell: dict[tuple[int, str], dict] = {}
    for path in row_files:
        _add_report_rows(Path(path), cell)
    rows = list(cell.values())
    if not rows:
        raise ValueError("no rows to report")
    out_dir = Path(cfg.output_dir)

    configs = [c for c in CHANNEL_CONFIGS if any(r["channel_config"] == c for r in rows)]
    subjects = sorted({r["subject"] for r in rows})
    recalls = sorted({k for r in rows for k in r if k.startswith("recall_")})

    def values(config: str, key: str) -> dict[int, float]:
        return {s: cell[s, config][key] for s in subjects if key in cell.get((s, config), {})}

    # every table column, in header order, as {subject: percent}; chance
    # comes from each subject's first config
    first = {s: next(cell[s, c] for c in configs if (s, c) in cell) for s in subjects}
    columns = {"chance": {s: 100 * first[s]["chance"] for s in subjects}}
    for c in configs:
        for key in ("overall", *recalls):
            columns[f"{c}_{key.removeprefix('recall_')}"] = {
                s: 100 * v for s, v in values(c, key).items()}
    table = [[str(s), *(f"{col[s]:.2f}" if s in col else "" for col in columns.values())]
             for s in subjects]
    footer, summary = ["Mean±SD"], {}
    for name, col in columns.items():
        if not col:
            footer.append("")
            continue
        mean, sd = stats.cohort_summary(list(col.values()))
        footer.append(f"{mean:.2f}±{sd:.2f}")
        summary[name] = [mean, sd]
    _write_csv(out_dir / "table.csv", [["ID", *columns], *table, footer])

    # pairwise signed-rank p-values across configurations, on overall accuracies
    overall = {c: values(c, "overall") for c in configs}

    def pvalue(a: dict[int, float], b: dict[int, float]) -> float | None:
        paired = [s for s in a if s in b]
        try:
            return stats.wilcoxon_signed_rank([a[s] for s in paired],
                                              [b[s] for s in paired]).p_value
        except ValueError:
            return None

    # the test is symmetric bit for bit (W+ and W- sum exactly), so each pair runs once
    pvalues = {c: {c: 1.0} for c in configs}
    for i, c1 in enumerate(configs):
        for c2 in configs[i + 1:]:
            pvalues[c1][c2] = pvalues[c2][c1] = pvalue(overall[c1], overall[c2])
    _write_csv(out_dir / "pvalues.csv", [["", *configs]] + [
        [c1, *("" if pvalues[c1][c2] is None else repr(pvalues[c1][c2]) for c2 in configs)]
        for c1 in configs])
    _write_json(out_dir / "report.json", {"configs": configs, "subjects": subjects,
                                          "summary": summary, "pvalues": pvalues})
    return {"output_dir": str(out_dir), "subjects": len(subjects)}


def _add_report_rows(path: Path, cell: dict[tuple[int, str], dict]) -> None:
    """Add the rows of one ``rows.csv`` to `cell` under their (subject,
    channel_config), each with an int ``subject``, a ``channel_config`` from
    `CHANNEL_CONFIGS`, a float ``chance`` and, where present, a float
    ``overall`` and ``recall_*``, each of these in [0, 1]; any other row, or
    a key already in `cell`, is a ``ValueError`` that starts with the path."""
    with _reading(path):
        for row in _read_rows_csv(path):
            if row["channel_config"] not in CHANNEL_CONFIGS:
                raise ValueError(f"channel_config must be one of {CHANNEL_CONFIGS}, "
                                 f"got {row['channel_config']!r}")
            row["subject"] = int(row["subject"])
            if "chance" not in row:
                raise ValueError("row has no chance value")
            for key in row:
                if key in ("chance", "overall") or key.startswith("recall_"):
                    row[key] = float(row[key])
                    if not 0.0 <= row[key] <= 1.0:
                        raise ValueError(f"{key} must be in [0, 1], got {row[key]}")
            key = row["subject"], row["channel_config"]
            if key in cell:
                raise ValueError(f"second row for subject {key[0]}, {key[1]}")
            cell[key] = row


def _read_rows_csv(path: Path) -> list[dict]:
    """Rows of a ``rows.csv``, blank lines skipped; a row with more or fewer
    fields than the header is a ``ValueError``."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = filter(None, csv.reader(fh))
        header, rows = next(reader, []), list(reader)
    for n, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"row {n} has {len(row)} fields, header has {len(header)}")
    return [dict(zip(header, row)) for row in rows]


# ---------------------------------------------------------------------------
# argument parsing

#: Flags that override a config key, by key; each subcommand takes the ones it reads.
_OVERRIDES = {
    "seed": {"type": int, "help": "override config seed"},
    "metric": {"choices": METRICS, "help": "override ground metric"},
    "mass": {"choices": MASS_MODES, "help": "override mass mode"},
    "output_dir": {"help": "override output directory"},
}


def _add_common(p: argparse.ArgumentParser, *keys: str) -> None:
    p.add_argument("--config", help="experiment config file")
    for key in keys:
        p.add_argument(f"--{key.replace('_', '-')}", **_OVERRIDES[key])


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return load_config(args.config, {key: getattr(args, key, None) for key in _OVERRIDES})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emdscalp",
        description="EEG channel-relevance pipeline with exact earth mover's "
                    "distance agreement scoring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest recordings into the epoch cache")
    _add_common(p)
    p.set_defaults(func=lambda a: cmd_prepare(_config_from_args(a)))

    p = sub.add_parser("train-eval", help="train and evaluate the covariance classifier")
    _add_common(p, "seed", "output_dir")
    p.set_defaults(func=lambda a: cmd_train_eval(_config_from_args(a)))

    p = sub.add_parser("select-channels", help="run backward-elimination channel selection")
    _add_common(p, "seed", "output_dir")
    p.set_defaults(func=lambda a: cmd_select_channels(_config_from_args(a)))

    p = sub.add_parser("emd", help="compare relevance maps against the baseline")
    _add_common(p, "metric", "mass", "output_dir")
    p.add_argument("--maps", nargs="*", default=[], metavar="NAME=CSV",
                   help="spatial-map CSV files to compare")
    p.add_argument("--cohorts", nargs="*", default=[], metavar="NAME=JSON",
                   help="cohort aggregate JSON files to compare")
    p.add_argument("--baseline-map", help="spatial-map CSV replacing the built-in baseline")
    p.set_defaults(func=lambda a: cmd_emd(_config_from_args(a), a.maps, a.cohorts,
                                          a.baseline_map))

    p = sub.add_parser("plot", help="render a spatial map as SVG")
    _add_common(p)
    p.add_argument("--map", required=True, help="spatial-map CSV")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=lambda a: cmd_plot(_config_from_args(a), a.map, a.out))

    p = sub.add_parser("report", help="tabulate rows with cohort summary and p-values")
    _add_common(p, "output_dir")
    p.add_argument("--rows", nargs="+", required=True, help="rows.csv file(s)")
    p.set_defaults(func=lambda a: cmd_report(_config_from_args(a), a.rows))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except Exception as exc:  # contract: nonzero exit, JSON error on stderr
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
