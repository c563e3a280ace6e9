"""Channel-relevance ingestion, top-k extraction, and cohort aggregation.

Relevance scores come from external per-model JSON exports (schema below);
the covariance classifier's own selection is the final subset of its
elimination trace.  The module also builds the 21-channel motor-cortex
baseline map that data-driven selections are compared against.

External relevance JSON schema::

    {
      "subject": str,                      # optional, not read
      "model": str,                        # optional, not read
      "channels": [str, ...],
      "pooled": [float, ...],              # aligned with channels
      "per_class": {"<label>": [float, ...], ...}   # optional
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .montage import GridLayout, SpatialMap, binary_map

__all__ = [
    "RelevanceScores",
    "CohortAggregate",
    "MI_BASELINE_CHANNELS",
    "ingest_external",
    "top_k",
    "aggregate_cohort",
    "mi_baseline",
]

#: 21 channels proximal to the motor cortex: the full FC, C and CP rows of
#: the shipped montage, temporal ends excluded.
MI_BASELINE_CHANNELS = (
    "FC5", "FC3", "FC1", "FCz", "FC2", "FC4", "FC6",
    "C5", "C3", "C1", "Cz", "C2", "C4", "C6",
    "CP5", "CP3", "CP1", "CPz", "CP2", "CP4", "CP6",
)


@dataclass(frozen=True)
class RelevanceScores:
    """Per-channel importance from one source, montage-ordered.

    `channels` lists the scored channels in montage order, which fixes the
    deterministic tie-break used by `top_k`.  `per_class` is present only
    for class-discriminative sources.
    """

    channels: tuple[str, ...]
    pooled: dict[str, float]
    per_class: dict[str, dict[str, float]] | None = None


@dataclass(frozen=True)
class CohortAggregate:
    """How many subjects selected each channel in their top-k set."""

    counts: dict[str, int]
    subjects: tuple[str, ...]


def ingest_external(file: str | Path, layout: GridLayout) -> RelevanceScores:
    """Load and validate an external relevance JSON document.

    Channel names are resolved by `GridLayout.resolve_all`; unknown names,
    two names of one electrode, misaligned arrays, and non-finite scores
    are rejected.
    """
    doc = json.loads(Path(file).read_text(encoding="utf-8"))
    for key in ("channels", "pooled"):
        if key not in doc:
            raise ValueError(f"relevance document missing {key!r}")
    names = layout.resolve_all(doc["channels"])

    def aligned(values, what: str) -> dict[str, float]:
        if len(values) != len(names):
            raise ValueError(f"{what} has {len(values)} entries for {len(names)} channels")
        out = {}
        for name, v in zip(names, values):
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"non-finite {what} score for {name}")
            out[name] = v
        return out

    pooled = aligned(doc["pooled"], "pooled")
    per_class = None
    if doc.get("per_class"):
        per_class = {str(lab): aligned(v, f"per_class[{lab}]") for lab, v in doc["per_class"].items()}
    order = sorted(names, key=layout.montage_rank)
    return RelevanceScores(channels=tuple(order), pooled=pooled, per_class=per_class)


def _ranked(scores: Mapping[str, float], order: tuple[str, ...]) -> list[str]:
    """Names of `scores` by descending score, ties to the earlier place in `order`."""
    pos = {name: i for i, name in enumerate(order)}
    return sorted(scores, key=lambda name: (-scores[name], pos[name]))


def top_k(scores: RelevanceScores, k: int, class_mode: str = "pooled") -> set[str]:
    """The k most relevant channel names.

    ``pooled`` takes the k highest pooled scores.  ``per_class_union``
    takes each class's top-k list, unions them, and truncates back to k by
    pooled score.  Ties always break towards the lower montage position.
    """
    if not 1 <= k <= len(scores.channels):
        raise ValueError(f"k must be in [1, {len(scores.channels)}], got {k}")
    if class_mode == "pooled":
        return set(_ranked(scores.pooled, scores.channels)[:k])
    if class_mode == "per_class_union":
        if not scores.per_class:
            raise ValueError("per_class_union requires per-class scores")
        union: set[str] = set()
        for class_scores in scores.per_class.values():
            union.update(_ranked(class_scores, scores.channels)[:k])
        pooled_in_union = {name: scores.pooled[name] for name in union}
        return set(_ranked(pooled_in_union, scores.channels)[:k])
    raise ValueError(f"unknown class_mode {class_mode!r}")


def aggregate_cohort(selections: Mapping[str, Iterable[str]]) -> CohortAggregate:
    """Per-channel selection counts across subjects."""
    if not selections:
        raise ValueError("cohort is empty")
    counts: dict[str, int] = {}
    for chans in selections.values():
        for name in set(chans):
            counts[name] = counts.get(name, 0) + 1
    return CohortAggregate(counts=counts, subjects=tuple(sorted(selections)))


def mi_baseline(layout: GridLayout) -> SpatialMap:
    """Binary spatial map of the 21 motor-cortex baseline channels: each
    channel's cell holds 1, so the total mass is 21."""
    missing = [c for c in MI_BASELINE_CHANNELS if c not in layout]
    if missing:
        raise ValueError(f"layout is missing baseline channels: {missing}")
    return binary_map(MI_BASELINE_CHANNELS, layout)
