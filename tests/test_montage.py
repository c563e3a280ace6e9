import re

import numpy as np
import pytest

from emdscalp import montage
from emdscalp.relevance import MI_BASELINE_CHANNELS

CENTRAL_ROW = ["T9", "T7", "C5", "C3", "C1", "Cz", "C2", "C4", "C6", "T8", "T10"]


class TestShippedLayout:
    def test_dimensions(self, layout):
        assert layout.n == 11
        assert len(layout.electrodes) == 64

    def test_cz_is_grid_centre(self, layout):
        assert layout.position("Cz") == (5, 5)

    def test_central_row_contents(self, layout):
        row5 = sorted(
            (e.col, e.name) for e in layout.electrodes if e.row == 5
        )
        assert [name for _, name in row5] == CENTRAL_ROW

    def test_all_cells_unique(self, layout):
        cells = [(e.row, e.col) for e in layout.electrodes]
        assert len(set(cells)) == len(cells)

    def test_left_right_symmetry(self, layout):
        cols_per_row = {}
        for e in layout.electrodes:
            cols_per_row.setdefault(e.row, []).append(e.col)
        for cols in cols_per_row.values():
            assert sorted(cols) == sorted(10 - c for c in cols)

    def test_covers_all_64_dataset_channel_labels(self, layout):
        # labels exactly as the 64-channel recordings spell them
        dataset_labels = [
            "Fc5.", "Fc3.", "Fc1.", "Fcz.", "Fc2.", "Fc4.", "Fc6.",
            "C5..", "C3..", "C1..", "Cz..", "C2..", "C4..", "C6..",
            "Cp5.", "Cp3.", "Cp1.", "Cpz.", "Cp2.", "Cp4.", "Cp6.",
            "Fp1.", "Fpz.", "Fp2.",
            "Af7.", "Af3.", "Afz.", "Af4.", "Af8.",
            "F7..", "F5..", "F3..", "F1..", "Fz..", "F2..", "F4..", "F6..", "F8..",
            "Ft7.", "Ft8.",
            "T7..", "T8..", "T9..", "T10.",
            "Tp7.", "Tp8.",
            "P7..", "P5..", "P3..", "P1..", "Pz..", "P2..", "P4..", "P6..", "P8..",
            "Po7.", "Po3.", "Poz.", "Po4.", "Po8.",
            "O1..", "Oz..", "O2..",
            "Iz..",
        ]
        assert len(dataset_labels) == 64
        resolved = {layout.resolve(lab) for lab in dataset_labels}
        assert resolved == set(layout.names)


class TestLoadGridLayout:
    def test_pure_function_of_content(self):
        text = "A1,0,0\nB2,1,1\n"
        assert montage.load_grid_layout(text) == montage.load_grid_layout(text)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate electrode name"):
            montage.load_grid_layout("C3,0,0\nC3,1,1\n")

    def test_duplicate_cell_rejected(self):
        with pytest.raises(ValueError, match="already occupied"):
            montage.load_grid_layout("C3,0,0\nC4,0,0\n")

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            montage.load_grid_layout("C3,-1,0\n")

    def test_malformed_record_rejected(self):
        with pytest.raises(ValueError, match="expected NAME,row,col"):
            montage.load_grid_layout("C3 0 0\n")
        with pytest.raises(ValueError, match="non-integer"):
            montage.load_grid_layout("C3,a,0\n")

    def test_comments_and_blanks_ignored(self):
        lay = montage.load_grid_layout("# header\n\nC3,0,1  # trailing\nC4,1,0\n")
        assert lay.names == ("C3", "C4")
        assert lay.n == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no electrodes"):
            montage.load_grid_layout("# nothing here\n")


class TestNameResolution:
    def test_physionet_style_names(self, layout):
        assert layout.resolve("Fc5.") == "FC5"
        assert layout.resolve("Cz..") == "Cz"
        assert layout.position("Fc5.") == layout.position("FC5")

    def test_unknown_name(self, layout):
        with pytest.raises(KeyError, match="XX9"):
            layout.resolve("XX9")

    def test_resolve_all_keeps_order(self, layout):
        assert layout.resolve_all(["Cz..", "fc5", "C3"]) == ["Cz", "FC5", "C3"]
        assert layout.resolve_all([]) == []

    def test_resolve_all_unknown_name(self, layout):
        with pytest.raises(KeyError, match="XX9"):
            layout.resolve_all(["C3", "XX9"])

    @pytest.mark.parametrize("names", [["C3", "C4", "C3"], ["C3", "c3."], ["Cz", "CZ"]])
    def test_resolve_all_rejects_two_names_of_one_electrode(self, layout, names):
        first, second = [n for n in names if layout.resolve(n) == layout.resolve(names[-1])]
        with pytest.raises(ValueError, match=re.escape(
                f"{first!r} and {second!r} name electrode {layout.resolve(first)!r} twice")):
            layout.resolve_all(names)

    def test_contains(self, layout):
        assert "C3" in layout
        assert "Q7" not in layout


class TestBinaryMap:
    def test_empty_set_is_zero_map(self, layout):
        m = montage.binary_map(set(), layout)
        assert m.total == 0.0

    def test_single_channel(self, layout):
        m = montage.binary_map({"Cz"}, layout)
        assert m.total == 1.0
        assert m.mass[5, 5] == 1.0

    def test_mi_baseline_set_mass(self, layout):
        m = montage.binary_map(set(MI_BASELINE_CHANNELS), layout)
        assert m.total == 21.0
        assert np.all((m.mass == 0) | (m.mass == 1))

    def test_unknown_channel(self, layout):
        with pytest.raises(KeyError):
            montage.binary_map({"NOPE"}, layout)

    def test_total_is_cardinality(self, layout, rng):
        names = list(layout.names)
        for _ in range(20):
            k = int(rng.integers(1, 30))
            chans = set(rng.choice(names, size=k, replace=False))
            assert montage.binary_map(chans, layout).total == len(chans)

    def test_disjoint_union_additivity(self, layout, rng):
        names = list(layout.names)
        for _ in range(10):
            picks = rng.choice(names, size=12, replace=False)
            s, t = set(picks[:5]), set(picks[5:])
            total_union = montage.binary_map(s | t, layout).total
            assert total_union == (
                montage.binary_map(s, layout).total + montage.binary_map(t, layout).total
            )


class TestWeightedMap:
    def test_single_weight(self, layout):
        m = montage.weighted_map({"C3": 14.0}, layout)
        assert m.total == 14.0
        assert m.mass[layout.position("C3")] == 14.0

    def test_unit_weights_equal_binary(self, layout):
        chans = set(MI_BASELINE_CHANNELS)
        wm = montage.weighted_map({c: 1.0 for c in chans}, layout)
        bm = montage.binary_map(chans, layout)
        assert np.array_equal(wm.mass, bm.mass)

    def test_negative_weight_rejected(self, layout):
        with pytest.raises(ValueError, match="negative weight"):
            montage.weighted_map({"C3": -1.0}, layout)

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, layout, weight):
        with pytest.raises(ValueError, match="^non-finite weight for 'C4'$"):
            montage.weighted_map({"C3": 1.0, "C4": weight}, layout)

    def test_unknown_name_rejected(self, layout):
        with pytest.raises(KeyError):
            montage.weighted_map({"ZZ1": 1.0}, layout)

    def test_two_names_of_one_electrode_rejected(self, layout):
        with pytest.raises(ValueError, match="twice"):
            montage.weighted_map({"C3": 2.0, "c3": 1.0}, layout)
        with pytest.raises(ValueError, match="twice"):
            montage.binary_map(["C3", "Cz", "c3"], layout)


class TestSpatialMap:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="nonnegative"):
            montage.SpatialMap(2, np.array([[1.0, -0.5], [0.0, 0.0]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="must be 2x2"):
            montage.SpatialMap(2, np.zeros((3, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            montage.SpatialMap(1, np.array([[np.nan]]))

    def test_mass_is_immutable(self, layout):
        m = montage.binary_map({"Cz"}, layout)
        with pytest.raises(ValueError):
            m.mass[0, 0] = 5.0

    def test_csv_round_trip(self, tmp_path, rng):
        m = montage.SpatialMap(4, rng.random((4, 4)))
        path = tmp_path / "map.csv"
        montage.save_spatial_map(m, path)
        back = montage.load_spatial_map(path)
        assert back.n == 4
        assert np.array_equal(back.mass, m.mass)

    @pytest.mark.parametrize("text, message", [
        ("1.0,2.0\n3.0\n", "line 2: expected 2 numbers, got ['3.0']"),
        ("1,2\n\n3,4,5\n", "line 3: expected 2 numbers, got ['3', '4', '5']"),
        ("1,x\n0,1\n", "line 1: expected 2 numbers, got ['1', 'x']"),
        ("0,1\n1,\n", "line 2: expected 2 numbers, got ['1', '']"),
    ], ids=["short row", "long row", "no number", "empty field"])
    def test_csv_rejects_ragged_naming_its_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            montage.load_spatial_map(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, shape", [("", "(0,)"), ("1,2,3\n4,5,6\n", "(2, 3)")],
                             ids=["empty", "2 x 3"])
    def test_csv_rejects_non_square(self, tmp_path, text, shape):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            montage.load_spatial_map(path)
        assert str(err.value) == f"spatial map file must be square, got {shape}"
