import json
import re

import numpy as np
import pytest

from emdscalp import relevance
from emdscalp.montage import binary_map, load_grid_layout
from emdscalp.relevance import (
    MI_BASELINE_CHANNELS,
    aggregate_cohort,
    ingest_external,
    mi_baseline,
    top_k,
)
from emdscalp.transport import emd


def write_relevance(tmp_path, layout, pooled, per_class=None, name="rel.json"):
    channels = list(pooled)
    doc = {
        "subject": "S007",
        "model": "test",
        "channels": channels,
        "pooled": [pooled[c] for c in channels],
    }
    if per_class is not None:
        doc["per_class"] = {lab: [m[c] for c in channels] for lab, m in per_class.items()}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestIngestExternal:
    def test_minimal_valid_document(self, tmp_path, layout, rng):
        pooled = {name: float(rng.random()) for name in layout.names}
        path = write_relevance(tmp_path, layout, pooled)
        scores = ingest_external(path, layout)
        assert set(scores.channels) == set(layout.names)
        assert scores.per_class is None

    def test_per_class_maps_retained(self, tmp_path, layout):
        pooled = {"C3": 1.0, "C4": 0.5}
        per_class = {"Left": {"C3": 0.1, "C4": 0.9}, "Right": {"C3": 0.9, "C4": 0.1}}
        path = write_relevance(tmp_path, layout, pooled, per_class)
        scores = ingest_external(path, layout)
        assert set(scores.per_class) == {"Left", "Right"}
        assert scores.per_class["Left"]["C4"] == 0.9

    def test_unknown_channel_rejected(self, tmp_path, layout):
        path = write_relevance(tmp_path, layout, {"XX9": 1.0})
        with pytest.raises(KeyError, match="XX9"):
            ingest_external(path, layout)

    def test_non_finite_score_rejected(self, tmp_path, layout):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"channels": ["C3"], "pooled": [float("nan")]}
        ).replace("NaN", "NaN"))
        with pytest.raises(ValueError,
                           match="^pooled score for C3 must be a JSON number, not nan$"):
            ingest_external(path, layout)

    @pytest.mark.parametrize("score, shown", [("0.9", "'0.9'"), (True, "True"), (None, "None"),
                                              ([0.9], "list")])
    def test_score_must_be_a_json_number(self, tmp_path, layout, score, shown):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"channels": ["C3", "C4", "Cz", "Oz"],
                                    "pooled": [0.9, 1, 0.5, 0.5],
                                    "per_class": {"Left": [0.5, 0.5, score, 1]}}))
        with pytest.raises(ValueError, match=rf"^per_class\[Left\] score for Cz must be a "
                                             rf"JSON number, not {re.escape(shown)}$"):
            ingest_external(path, layout)

    @pytest.mark.parametrize("field", ["channels", "pooled", "per_class"])
    def test_fields_must_be_json_arrays(self, tmp_path, layout, field):
        # an object keyed by channel, as a script may write, is named
        doc = {"channels": ["C3", "C4"], "pooled": [0.9, 1], "per_class": {"Left": [0.5, 1]}}
        keyed = dict(zip(doc["channels"], doc["pooled"]))
        if field == "per_class":
            doc["per_class"]["Left"] = keyed
        else:
            doc[field] = keyed
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        name = "per_class[Left]" if field == "per_class" else field
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be a JSON array, "
                                             "not dict$"):
            ingest_external(path, layout)

    @pytest.mark.parametrize("edit, message", [
        ({"per_class": [[1, 0]]}, "per_class must be a JSON object, not list"),
        ({"per_class": 7}, "per_class must be a JSON object, not 7"),
        ({"per_class": None}, "per_class must be a JSON object, not None"),
        ({"channels": [3, "C4"]}, "channels[0] must be a JSON string, not 3"),
        ({"pooled": ...}, "pooled must be a JSON array, not None"),
        ("5", "document must be a JSON object, not 5"),
    ], ids=["per_class array", "per_class integer", "per_class null", "integer channel",
            "no pooled", "integer document"])
    def test_malformed_document_names_its_field(self, tmp_path, layout, edit, message):
        """`edit` is a change to a valid document (``...`` drops the key), or the whole text."""
        doc = {"channels": ["C3", "C4"], "pooled": [0.9, 1.5], "per_class": {"Left": [0.5, 1.5]}}
        path = tmp_path / "bad.json"
        path.write_text(edit if isinstance(edit, str) else json.dumps(
            {k: v for k, v in dict(doc, **edit).items() if v is not ...}))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ingest_external(path, layout)

    def test_integer_scores_are_json_numbers(self, tmp_path, layout):
        path = write_relevance(tmp_path, layout, {"C3": 1, "C4": 0.5})
        scores = ingest_external(path, layout)
        assert scores.pooled == {"C3": 1.0, "C4": 0.5}
        assert type(scores.pooled["C3"]) is float

    def test_misaligned_arrays_rejected(self, tmp_path, layout):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"channels": ["C3", "C4"], "pooled": [1.0]}))
        with pytest.raises(ValueError, match="entries"):
            ingest_external(path, layout)

    def test_duplicate_channel_rejected(self, tmp_path, layout):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"channels": ["C3", "c3"], "pooled": [1.0, 2.0]}))
        with pytest.raises(ValueError, match="twice"):
            ingest_external(path, layout)

    def test_channels_stored_in_montage_order(self, tmp_path, layout):
        pooled = {"Oz": 1.0, "Fp1": 2.0, "Cz": 3.0}
        path = write_relevance(tmp_path, layout, pooled)
        scores = ingest_external(path, layout)
        assert scores.channels == ("Fp1", "Cz", "Oz")


class TestTopK:
    def _scores(self, layout, pooled, per_class=None):
        order = tuple(sorted(pooled, key=layout.montage_rank))
        return relevance.RelevanceScores(channels=order, pooled=pooled, per_class=per_class)

    def test_k_equals_channel_count(self, layout):
        pooled = {n: 1.0 for n in ("C3", "C4", "Cz")}
        scores = self._scores(layout, pooled)
        assert top_k(scores, 3) == {"C3", "C4", "Cz"}

    def test_one_hot(self, layout):
        pooled = {"C3": 5.0, "C4": 0.0, "Cz": 0.0}
        scores = self._scores(layout, pooled)
        assert top_k(scores, 1) == {"C3"}

    def test_tie_at_cutoff_goes_to_montage_order(self, layout):
        # Fp1 precedes Oz in montage order; both tied at the boundary
        pooled = {"Cz": 2.0, "Oz": 1.0, "Fp1": 1.0}
        scores = self._scores(layout, pooled)
        assert top_k(scores, 2) == {"Cz", "Fp1"}

    def test_k_out_of_range(self, layout):
        scores = self._scores(layout, {"C3": 1.0})
        with pytest.raises(ValueError, match="k must be"):
            top_k(scores, 0)
        with pytest.raises(ValueError, match="k must be"):
            top_k(scores, 2)

    def test_per_class_union(self, layout):
        pooled = {"C3": 3.0, "C4": 2.0, "Cz": 1.0, "Pz": 0.5}
        per_class = {
            "Left": {"C3": 9.0, "C4": 0.0, "Cz": 0.0, "Pz": 0.0},
            "Right": {"C3": 0.0, "C4": 9.0, "Cz": 0.0, "Pz": 0.0},
        }
        scores = self._scores(layout, pooled, per_class)
        # per-class top-1 lists are {C3} and {C4}; union fits k=2
        assert top_k(scores, 2, class_mode="per_class_union") == {"C3", "C4"}
        # union exceeding k is truncated by pooled score
        per_class["Left"]["Pz"] = 8.0
        scores = self._scores(layout, pooled, per_class)
        got = top_k(scores, 2, class_mode="per_class_union")
        assert got == {"C3", "C4"}

    def test_per_class_union_without_per_class_data(self, layout):
        scores = self._scores(layout, {"C3": 1.0})
        with pytest.raises(ValueError, match="per_class_union"):
            top_k(scores, 1, class_mode="per_class_union")

    def test_unknown_class_mode_rejected(self, layout):
        scores = self._scores(layout, {"C3": 1.0})
        with pytest.raises(ValueError, match="^unknown class_mode 'union'$"):
            top_k(scores, 1, class_mode="union")


class TestAggregateCohort:
    def test_single_subject(self):
        assert aggregate_cohort({"S001": {"C3"}}) == {"C3": 1}

    def test_fourteen_subjects_same_channel(self):
        assert aggregate_cohort({f"S{i:03d}": {"Cz"} for i in range(14)}) == {"Cz": 14}

    def test_matches_brute_force_tally(self, layout, rng):
        names = list(layout.names)
        selections = {
            f"S{i:03d}": set(rng.choice(names, size=int(rng.integers(1, 22)), replace=False))
            for i in range(10)
        }
        counts = aggregate_cohort(selections)
        for name in names:
            expected = sum(1 for sel in selections.values() if name in sel)
            assert counts.get(name, 0) == expected

    def test_subject_order_invariance(self, layout, rng):
        names = list(layout.names)
        sels = {f"S{i}": set(rng.choice(names, size=5, replace=False)) for i in range(6)}
        reversed_sels = dict(reversed(list(sels.items())))
        assert aggregate_cohort(sels) == aggregate_cohort(reversed_sels)

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate_cohort({})

    def test_count_map_total_is_sum_of_counts(self, layout, rng):
        from emdscalp.montage import weighted_map

        names = list(layout.names)
        selections = {
            f"S{i:03d}": set(rng.choice(names, size=21, replace=False))
            for i in range(14)
        }
        counts = aggregate_cohort(selections)
        wmap = weighted_map({n: float(c) for n, c in counts.items()}, layout)
        assert wmap.total == sum(counts.values()) == 14 * 21


class TestMIBaseline:
    def test_binary_total_21(self, layout):
        m = mi_baseline(layout)
        assert m.total == 21.0

    def test_zero_distance_to_itself(self, layout):
        m = mi_baseline(layout)
        assert emd(m, m).distance <= 1e-12

    def test_channels_live_on_fc_c_cp_rows(self, layout):
        m = mi_baseline(layout)
        rows = {r for r in range(layout.n) for c in range(layout.n) if m.mass[r, c] > 0}
        assert rows == {4, 5, 6}

    def test_matches_binary_map_of_list(self, layout):
        assert np.array_equal(
            mi_baseline(layout).mass,
            binary_map(set(MI_BASELINE_CHANNELS), layout).mass,
        )

    def test_missing_channel_rejected(self):
        small = load_grid_layout("C3,0,0\nC4,0,1\n")
        with pytest.raises(ValueError, match="missing baseline channels"):
            mi_baseline(small)
