import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats as sps

from emdscalp import signal, spdgeom
from emdscalp.stats import (
    _class_partition,
    _midranks,
    chance_level,
    cohort_summary,
    evaluate,
    select_subjects,
    wilcoxon_signed_rank,
)

from published import CONFORMER_ALL, EEGNET_ALL, MDM_ALL, MDM_FEAT21, MDM_MI21


_LABEL_LISTS = st.one_of(
    st.lists(st.integers(-2, 2), min_size=1, max_size=12),
    st.lists(st.sampled_from(["T1", "T2", "Left", "Right", "b"]), min_size=1, max_size=12),
    st.builds(lambda label, n: [label] * n, st.one_of(st.integers(), st.text(max_size=3)),
              st.integers(1, 6)),
)


class TestClassPartition:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(labels=_LABEL_LISTS)
    def test_every_step_follows_the_one_partition(self, labels):
        groups = _class_partition(labels)
        assert list(groups) == sorted(set(labels))
        assert sorted(i for idx in groups.values() for i in idx) == list(range(len(labels)))
        assert all(idx == sorted(idx) and {labels[i] for i in idx} == {c}
                   for c, idx in groups.items())

        preds = labels[1:] + labels[:1]
        ev = evaluate(preds, labels)
        assert list(ev.per_class_recall) == list(ev.support) == list(groups)
        assert ev.support == {c: len(idx) for c, idx in groups.items()}
        assert chance_level(labels) == max(len(idx) for idx in groups.values()) / len(labels)

        covs = np.array([np.diag([i + 1.0, 1.0]) for i in range(len(labels))])
        if len(groups) < 2:
            with pytest.raises(ValueError, match="^need at least 2 classes$"):
                spdgeom.mdm_fit(covs, labels)
            with pytest.raises(ValueError, match="^need at least 2 classes to split$"):
                signal.split(labels, seed=0)
            return
        model = spdgeom.mdm_fit(covs, labels, mean=lambda mats, **_: mats.mean(axis=0))
        assert model.classes == tuple(groups)
        for c, centroid in zip(model.classes, model.centroids):
            assert np.array_equal(centroid, covs[groups[c]].mean(axis=0))
        if min(len(idx) for idx in groups.values()) >= 2:
            train, test = signal.split(labels, seed=0)
            for side in (train, test):
                assert sorted({labels[i] for i in side}) == list(groups)
            # the split depends on the labels only through the partition
            renamed = {c: f"class {r:02d}" for r, c in enumerate(groups)}
            assert signal.split([renamed[lab] for lab in labels], seed=0) == (train, test)


class TestEvaluate:
    def test_all_correct(self):
        labels = ["Left"] * 4 + ["Right"] * 6
        res = evaluate(labels, labels)
        assert res.overall == 1.0
        assert res.overall_macro == 1.0
        assert res.per_class_recall == {"Left": 1.0, "Right": 1.0}

    def test_macro_with_equal_supports(self):
        labels = ["A"] * 10 + ["B"] * 10
        preds = ["A"] * 8 + ["B"] * 2 + ["B"] * 6 + ["A"] * 4
        res = evaluate(preds, labels)
        assert_allclose(res.per_class_recall["A"], 0.8)
        assert_allclose(res.per_class_recall["B"], 0.6)
        assert_allclose(res.overall_macro, 0.7)

    def test_support_weighted_row_reconstruction(self):
        # 56 left-class and 37 right-class test epochs; 47 and 31 correct
        labels = ["Left"] * 56 + ["Right"] * 37
        preds = (["Left"] * 47 + ["Right"] * 9) + (["Right"] * 31 + ["Left"] * 6)
        res = evaluate(preds, labels)
        assert_allclose(100 * res.per_class_recall["Left"], 83.93, atol=0.01)
        assert_allclose(100 * res.per_class_recall["Right"], 83.78, atol=0.01)
        assert_allclose(100 * res.overall, 83.87, atol=0.01)
        assert res.support == {"Left": 56, "Right": 37}
        assert res.n_test == 93

    def test_overall_bounded_by_recalls(self, rng):
        for _ in range(20):
            labels = list(rng.choice(["L", "R"], size=40)) + ["L", "R"]
            preds = list(rng.choice(["L", "R"], size=42))
            res = evaluate(preds, labels)
            lo = min(res.per_class_recall.values())
            hi = max(res.per_class_recall.values())
            assert lo - 1e-12 <= res.overall <= hi + 1e-12
            assert sum(res.support.values()) == res.n_test

    def test_macro_invariant_under_relabeling(self, rng):
        labels = list(rng.choice(["L", "R"], size=60)) + ["L", "R"]
        preds = list(rng.choice(["L", "R"], size=62))
        res = evaluate(preds, labels)
        swap = {"L": "R", "R": "L"}
        res2 = evaluate([swap[p] for p in preds], [swap[l] for l in labels])
        assert_allclose(res.overall_macro, res2.overall_macro)

    def test_recall_in_sorted_label_order(self):
        res = evaluate(["R", "L", "L"], ["R", "L", "R"])
        assert list(res.per_class_recall) == list(res.support) == ["L", "R"]
        assert res.per_class_recall == {"L": 1.0, "R": 0.5}

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            evaluate(["A"], ["A", "B"])


class TestChanceLevel:
    def test_balanced_majority(self):
        assert chance_level(["L", "R"] * 10) == 0.5

    def test_unbalanced_majority(self):
        labels = ["L"] * 56 + ["R"] * 37
        assert_allclose(chance_level(labels), 56 / 93, atol=1e-12)
        assert_allclose(chance_level(labels), 0.602, atol=0.001)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            chance_level([])


class TestSelectSubjects:
    def test_published_cohort_example(self):
        results = {"S7": _FakeResult(0.736)}
        chance = {"S7": 0.581}
        assert select_subjects(results, chance, margin=0.10) == ("S7",)

    def test_boundary_is_selected(self):
        results = {"a": _FakeResult(0.70)}
        chance = {"a": 0.60}
        assert select_subjects(results, chance, margin=0.10) == ("a",)

    def test_below_boundary_excluded(self):
        results = {"a": _FakeResult(0.699)}
        chance = {"a": 0.60}
        assert select_subjects(results, chance, margin=0.10) == ()

    def test_empty_cohort(self):
        assert select_subjects({}, {}) == ()

    def test_margin_monotonicity(self, rng):
        results = {f"s{i}": _FakeResult(float(rng.random())) for i in range(20)}
        chance = {s: 0.5 for s in results}
        prev = None
        for margin in (0.0, 0.05, 0.1, 0.2):
            sel = set(select_subjects(results, chance, margin))
            if prev is not None:
                assert sel <= prev
            prev = sel

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same subjects"):
            select_subjects({"a": _FakeResult(0.9)}, {"b": 0.5})


class _FakeResult:
    def __init__(self, overall):
        self.overall = overall


#: Float vectors drawn from a pool of at most 6 values, so most have ties.
_TIED_VECTORS = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40))


class TestMidranks:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_TIED_VECTORS)
    def test_equals_scipy_rankdata(self, values):
        a = np.array(values)
        assert np.array_equal(_midranks(a), sps.rankdata(a))


class TestWilcoxon:
    def test_identical_vectors_rejected(self):
        with pytest.raises(ValueError, match="all differences are zero"):
            wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_published_pair_all_vs_mi(self):
        res = wilcoxon_signed_rank(MDM_ALL, MDM_MI21)
        assert res.n_pairs == 14
        assert res.mode == "exact"
        assert abs(res.p_value - 0.0279) <= 0.003

    def test_published_pair_all_vs_feat(self):
        res = wilcoxon_signed_rank(MDM_ALL, MDM_FEAT21)
        assert abs(res.p_value - 0.0014) <= 0.003

    def test_published_cross_model_pairs(self):
        res = wilcoxon_signed_rank(MDM_ALL, CONFORMER_ALL)
        assert abs(res.p_value - 0.0029) <= 0.003
        res = wilcoxon_signed_rank(MDM_ALL, EEGNET_ALL)
        assert abs(res.p_value - 0.0028) <= 0.003

    def test_normal_approx_matches_scipy_above_exact_limit(self, rng):
        for n in (25, 40, 80):
            # rounding makes tied magnitudes and a few zero differences
            x = np.round(rng.normal(size=n), 1)
            y = np.round(rng.normal(size=n) + 0.3, 1)
            res = wilcoxon_signed_rank(x, y)
            assert res.mode == "normal-approx"
            scipy_p = sps.wilcoxon(x, y, correction=False, method="approx").pvalue
            assert_allclose(res.p_value, scipy_p, rtol=1e-9)

    def test_exact_matches_scipy_without_ties(self, rng):
        for _ in range(10):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            res = wilcoxon_signed_rank(x, y)
            scipy_p = sps.wilcoxon(x, y, method="exact").pvalue
            assert_allclose(res.p_value, scipy_p, atol=1e-12)

    def test_depends_only_on_signed_ranks(self, rng):
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        base = wilcoxon_signed_rank(x, y)
        # a strictly monotone odd transform of the differences preserves
        # signs and the rank order of magnitudes
        d = x - y
        d2 = np.sinh(d)
        res = wilcoxon_signed_rank(d2, np.zeros_like(d2))
        assert_allclose(res.p_value, base.p_value, atol=1e-12)

    def test_zero_differences_dropped_and_counted(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        y = [1.0, 1.0, 1.0, 1.0, 9.0, 1.0, 7.0]
        res = wilcoxon_signed_rank(x, y)
        assert res.zeros_dropped == 2
        assert res.n_pairs == 5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            wilcoxon_signed_rank([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pair_rejected(self, bad):
        # the NaN difference would otherwise fall out of ranking and report
        # p = 0 with statistic nan
        x = [0.5, 0.6, 0.7, 0.8, 0.9, bad]
        y = [0.4, 0.3, 0.2, 0.1, 0.0, 0.5]
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank(x, y)
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank(y, x)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError, match="at least 5"):
            wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])

    def test_auto_switches_to_approx(self, rng):
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        assert wilcoxon_signed_rank(x[:20], y[:20]).mode == "exact"
        assert wilcoxon_signed_rank(x, y).mode == "normal-approx"


class TestCohortSummary:
    def test_published_table_columns(self):
        for column, want_mean, want_sd in [
            (MDM_ALL, 73.63, 4.26),
            (MDM_MI21, 69.64, 7.35),
            (MDM_FEAT21, 68.56, 5.69),
            (CONFORMER_ALL, 68.64, 7.30),
            (EEGNET_ALL, 67.02, 7.02),
        ]:
            mean, sd = cohort_summary(column)
            assert abs(mean - want_mean) <= 0.02
            assert abs(sd - want_sd) <= 0.02

    def test_constant_vector(self):
        mean, sd = cohort_summary([5.0, 5.0, 5.0])
        assert mean == 5.0
        assert sd == 0.0

    def test_two_values(self):
        mean, sd = cohort_summary([1.0, 3.0])
        assert mean == 2.0

    def test_single_value_sd_zero(self):
        assert cohort_summary([7.0]) == (7.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            cohort_summary([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            cohort_summary([0.5, bad])
