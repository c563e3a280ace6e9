"""Channel relevance: external relevance JSON files, top-k extraction, cohort
counts and the 21-channel motor-cortex baseline map.  Entry points are
`ingest_external`, `top_k`, `aggregate_cohort` and `mi_baseline`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .montage import GridLayout, SpatialMap, _json_object, _json_value, binary_map

__all__ = [
    "RelevanceScores",
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
    """Per-channel scores from one source; `channels` is in montage order, which
    breaks `top_k`'s ties, and `per_class` is None for a source without classes."""

    channels: tuple[str, ...]
    pooled: dict[str, float]
    per_class: dict[str, dict[str, float]] | None = None


def ingest_external(file: str | Path, layout: GridLayout) -> RelevanceScores:
    """The scores in an external relevance JSON file, names resolved by
    `GridLayout.resolve_all`.  An unknown name, two names of one electrode, an
    array not aligned with ``channels``, a key given twice or a value that breaks
    `montage._json_value`'s rule for its field raises ``ValueError``."""
    doc = _json_object(Path(file).read_text(encoding="utf-8"), "document")
    channels = _json_value(doc.get("channels"), "array", "channels")
    names = layout.resolve_all(_json_value(c, "string", f"channels[{j}]")
                               for j, c in enumerate(channels))

    def aligned(values, what: str) -> dict[str, float]:
        if len(_json_value(values, "array", what)) != len(names):
            raise ValueError(f"{what} has {len(values)} entries for {len(names)} channels")
        return {name: _json_value(v, "number", f"{what} score for {name}")
                for name, v in zip(names, values)}

    pooled = aligned(doc.get("pooled"), "pooled")
    per_class = None
    if "per_class" in doc:
        per_class = {lab: aligned(v, f"per_class[{lab}]") for lab, v in
                     _json_value(doc["per_class"], "object", "per_class").items()}
    order = sorted(names, key=layout.montage_rank)
    return RelevanceScores(channels=tuple(order), pooled=pooled, per_class=per_class)


def _ranked(scores: Mapping[str, float], order: tuple[str, ...]) -> list[str]:
    """Names of `scores` by descending score, ties to the earlier place in `order`."""
    pos = {name: i for i, name in enumerate(order)}
    return sorted(scores, key=lambda name: (-scores[name], pos[name]))


def top_k(scores: RelevanceScores, k: int, class_mode: str = "pooled") -> set[str]:
    """The `k` most relevant channel names, k in [1, channels]: ``pooled`` takes the
    k highest pooled scores, ``per_class_union`` the k of highest pooled score in
    the union of each class's top k.  Ties go to the lower montage position."""
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


def aggregate_cohort(selections: Mapping[str, Iterable[str]]) -> dict[str, int]:
    """How many subjects selected each channel, by channel name."""
    if not selections:
        raise ValueError("cohort is empty")
    counts: dict[str, int] = {}
    for chans in selections.values():
        for name in set(chans):
            counts[name] = counts.get(name, 0) + 1
    return counts


def mi_baseline(layout: GridLayout) -> SpatialMap:
    """Binary spatial map of the 21 motor-cortex baseline channels: each
    channel's cell holds 1, so the total mass is 21."""
    missing = [c for c in MI_BASELINE_CHANNELS if c not in layout]
    if missing:
        raise ValueError(f"layout is missing baseline channels: {missing}")
    return binary_map(MI_BASELINE_CHANNELS, layout)
