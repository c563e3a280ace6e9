import mpmath
import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from emdscalp import spdgeom
from emdscalp.spdgeom import (
    EigenvalueClampWarning,
    FrechetMeanError,
    backward_elimination,
    covariance,
    frechet_mean,
    mdm_fit,
    mdm_predict,
    restrict_channels,
    riemannian_distance,
    trace_from_json,
    trace_to_json,
)

from helpers import make_spd_dataset, rand_spd


def plain_frechet_mean(mats, tol):
    """Reference for `frechet_mean`, written without `spdgeom`: the plain
    fixed-point step ``M <- M^{1/2} exp(mean_i log(M^{-1/2} A_i M^{-1/2}))
    M^{1/2}`` from the arithmetic mean.  Returns the mean and the number of
    gradient evaluations it took."""
    def fn(m, f):
        w, v = np.linalg.eigh(m)
        return (v * f(w)) @ v.T

    mean = np.mean(mats, axis=0)
    for evaluations in range(1, 1001):
        isq = fn(mean, lambda w: 1 / np.sqrt(w))
        grad = sum(fn(isq @ a @ isq, np.log) for a in mats)
        if np.linalg.norm(grad) <= tol:
            return mean, evaluations
        sq = fn(mean, np.sqrt)
        mean = sq @ fn(grad / len(mats), np.exp) @ sq
    raise AssertionError("plain iteration did not converge")


def rel_diff(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestCovariance:
    def test_white_noise_near_scaled_identity(self, rng):
        sigma = 2.0
        epoch = rng.normal(scale=sigma, size=(4, 20000))
        cov = covariance(epoch, shrinkage=0.0)
        assert_allclose(cov, sigma**2 * np.eye(4), atol=0.1 * sigma**2)

    def test_rank_deficient_epoch_still_spd(self, rng):
        epoch = rng.normal(size=(3, 50))
        epoch = np.vstack([epoch, epoch[0]])  # duplicated channel
        cov = covariance(epoch, shrinkage=0.01)
        assert np.linalg.eigvalsh(cov).min() > 0

    def test_matches_direct_formula(self):
        epoch = np.array(
            [[1.0, 2.0, 0.5, -1.0, 3.0, 0.0, 1.5, -0.5],
             [0.0, 1.0, -1.0, 2.0, 0.5, -2.0, 1.0, 0.5]]
        )
        centered = epoch - epoch.mean(axis=1, keepdims=True)
        s = centered @ centered.T / (epoch.shape[1] - 1)
        lam = 0.05
        expected = (1 - lam) * s + lam * (np.trace(s) / 2) * np.eye(2)
        assert_allclose(covariance(epoch, 0.05), expected, rtol=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            covariance(np.ones((3, 1)))

    def test_non_finite_rejected(self):
        bad = np.ones((2, 10))
        bad[0, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            covariance(bad)

    def test_shrinkage_range(self):
        with pytest.raises(ValueError, match="shrinkage"):
            covariance(np.random.default_rng(0).normal(size=(2, 10)), shrinkage=1.0)


class TestRiemannianDistance:
    def test_identity_to_itself(self):
        assert riemannian_distance(np.eye(3), np.eye(3)) == 0.0

    def test_scaled_identity(self):
        # delta(I, c I) = sqrt(dim) * |ln c|
        d = riemannian_distance(np.eye(2), np.e**2 * np.eye(2))
        assert_allclose(d, 2 * np.sqrt(2), rtol=1e-12)

    def test_commuting_diagonal(self):
        d = riemannian_distance(np.diag([1.0, 1.0]), np.diag([4.0, 9.0]))
        assert_allclose(d, np.sqrt(np.log(4.0) ** 2 + np.log(9.0) ** 2), rtol=1e-12)

    def test_symmetry(self, rng):
        for _ in range(20):
            a, b = rand_spd(rng, 4), rand_spd(rng, 4)
            d1, d2 = riemannian_distance(a, b), riemannian_distance(b, a)
            assert abs(d1 - d2) <= 1e-9 * max(d1, 1.0)

    def test_affine_invariance(self, rng):
        for _ in range(20):
            a, b = rand_spd(rng, 4), rand_spd(rng, 4)
            w = rng.normal(size=(4, 4))
            while abs(np.linalg.det(w)) < 1e-3:
                w = rng.normal(size=(4, 4))
            d = riemannian_distance(a, b)
            dw = riemannian_distance(w @ a @ w.T, w @ b @ w.T)
            assert abs(d - dw) <= 1e-7 * max(d, 1.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            riemannian_distance(np.eye(2), np.eye(3))

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            riemannian_distance(np.diag([1.0, -1.0]), np.eye(2))

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            riemannian_distance(m, np.eye(2))


class TestFrechetMean:
    def test_singleton(self, rng):
        a = rand_spd(rng, 3)
        assert_allclose(frechet_mean([a]), a, rtol=1e-10, atol=1e-12)

    def test_geometric_mean_of_commuting_pair(self):
        m = frechet_mean([np.diag([1.0, 1.0]), np.diag([4.0, 4.0])])
        assert_allclose(m, np.diag([2.0, 2.0]), rtol=1e-9)

    def test_gradient_residual_at_convergence(self, rng):
        mats = [rand_spd(rng, 4) for _ in range(10)]
        m = frechet_mean(mats, tol=1e-8)
        # independent residual recomputation
        w, v = np.linalg.eigh(m)
        isq = (v * (1 / np.sqrt(w))) @ v.T
        total = np.zeros((4, 4))
        for a in mats:
            ww, vv = np.linalg.eigh(isq @ a @ isq)
            total += (vv * np.log(ww)) @ vv.T
        assert np.linalg.norm(total, "fro") <= 1e-8

    def test_commuting_set_equals_geometric_mean(self, rng):
        diags = [np.diag(np.exp(rng.normal(size=3))) for _ in range(6)]
        m = frechet_mean(diags)
        expected = np.diag(np.exp(np.mean([np.log(np.diag(d)) for d in diags], axis=0)))
        assert_allclose(m, expected, atol=1e-8)

    def test_non_convergence_reports_residual(self, rng):
        mats = [rand_spd(rng, 4, spread=2.0) for _ in range(5)]
        with pytest.raises(FrechetMeanError) as err:
            frechet_mean(mats, tol=1e-14, max_iter=1)
        assert err.value.residual > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            frechet_mean([])

    @pytest.mark.parametrize("dim", [2, 4, 16, 64])
    def test_agrees_with_plain_iteration(self, rng, dim):
        mats = [rand_spd(rng, dim) for _ in range(10)]
        expected, _ = plain_frechet_mean(mats, tol=1e-10)
        assert rel_diff(frechet_mean(mats, tol=1e-10), expected) <= 1e-10

    def test_converges_in_half_the_plain_iterations(self, rng):
        mats = [rand_spd(rng, 8, spread=1.5) for _ in range(20)]
        expected, n_plain = plain_frechet_mean(mats, tol=1e-10)
        assert n_plain >= 20
        mean = frechet_mean(mats, tol=1e-10, max_iter=6)
        assert rel_diff(mean, expected) <= 1e-10

    def test_overshooting_newton_step_falls_back_to_plain_steps(self, rng, monkeypatch):
        mats = [rand_spd(rng, 8) for _ in range(20)]
        expected, _ = plain_frechet_mean(mats, tol=1e-10)
        solve = spdgeom._newton_direction
        steps = []

        def overshoot(*args):
            steps.append(1)
            return 3.0 * solve(*args)

        monkeypatch.setattr(spdgeom, "_newton_direction", overshoot)
        mean = frechet_mean(mats, tol=1e-10)
        assert steps
        assert rel_diff(mean, expected) <= 1e-10


class TestEigenClamping:
    def test_clamping_warns_and_counts(self, rng):
        before = spdgeom.clamped_eigenvalue_count()
        nearly = np.diag([1.0, 1e-18])
        with pytest.warns(EigenvalueClampWarning):
            frechet_mean([nearly, np.eye(2)], max_iter=5, tol=1e-6)
        assert spdgeom.clamped_eigenvalue_count() > before


class TestMDM:
    def test_single_example_classes_yield_those_centroids(self, rng):
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        model = mdm_fit([a, b], ["Left", "Right"])
        assert_allclose(model.centroids[0], a, rtol=1e-8, atol=1e-10)
        assert_allclose(model.centroids[1], b, rtol=1e-8, atol=1e-10)

    def test_predict_centroid_recovers_class(self, rng):
        covs, labels = make_spd_dataset(rng, 10, dim=4, discriminative=(1,))
        model = mdm_fit(covs, labels)
        for c, label in zip(model.centroids, model.classes):
            assert mdm_predict(model, c) == label

    def test_separable_data_accuracy(self, rng):
        covs, labels = make_spd_dataset(rng, 40, dim=8)
        train = covs[:30] + covs[40:70]
        train_labels = labels[:30] + labels[40:70]
        test = covs[30:40] + covs[70:80]
        test_labels = labels[30:40] + labels[70:80]
        model = mdm_fit(train, train_labels)
        preds = [mdm_predict(model, c) for c in test]
        acc = np.mean([p == t for p, t in zip(preds, test_labels)])
        assert acc >= 0.95

    def test_training_order_invariance(self, rng):
        covs, labels = make_spd_dataset(rng, 8, dim=4)
        model = mdm_fit(covs, labels, classes=("Left", "Right"))
        perm = rng.permutation(len(covs))
        shuffled = mdm_fit([covs[i] for i in perm], [labels[i] for i in perm],
                           classes=("Left", "Right"))
        for c1, c2 in zip(model.centroids, shuffled.centroids):
            assert_allclose(c1, c2, atol=1e-8)

    def test_equidistant_tie_goes_to_first_declared_class(self):
        a, b = np.diag([1.0, 4.0]), np.diag([4.0, 1.0])
        model = mdm_fit([a, b], ["Left", "Right"])
        assert mdm_predict(model, np.eye(2)) == "Left"

    def test_decision_congruence_invariance(self, rng):
        covs, labels = make_spd_dataset(rng, 6, dim=4)
        model = mdm_fit(covs, labels)
        w = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        transformed = mdm_fit(
            [w @ c @ w.T for c in covs], labels, classes=model.classes
        )
        for c in covs[:6]:
            assert mdm_predict(model, c) == mdm_predict(transformed, w @ c @ w.T)

    def test_missing_class_rejected(self, rng):
        a = rand_spd(rng, 3)
        with pytest.raises(ValueError, match="at least 2 classes"):
            mdm_fit([a, a], ["Left", "Left"])
        with pytest.raises(ValueError, match="zero examples"):
            mdm_fit([a, a], ["Left", "Left"], classes=("Left", "Right"))

    def test_dim_mismatch_on_predict(self, rng):
        covs, labels = make_spd_dataset(rng, 4, dim=4)
        model = mdm_fit(covs, labels, channel_subset=(0, 1))
        with pytest.raises(ValueError, match="does not match"):
            mdm_predict(model, covs[0])

    def test_subset_restriction_before_averaging(self, rng):
        covs, labels = make_spd_dataset(rng, 6, dim=5)
        sub = (1, 3)
        model = mdm_fit(covs, labels, channel_subset=sub)
        direct = mdm_fit([restrict_channels(c, sub) for c in covs], labels)
        for c1, c2 in zip(model.centroids, direct.centroids):
            assert_allclose(c1, c2, atol=1e-10)


class TestBackwardElimination:
    def test_removal_record_count_64_to_21(self, rng):
        # single-example classes make centroid estimation immediate
        a, b = rand_spd(rng, 64, spread=0.3), rand_spd(rng, 64, spread=0.3)
        trace = backward_elimination([a, b], target_k=21)
        assert len(trace.removal_order) == 43
        assert len(trace.final_subset) == 21

    def test_recovers_discriminative_channels(self, rng):
        covs, labels = make_spd_dataset(rng, 30, dim=8, discriminative=(3, 7))
        trace = backward_elimination(mdm_fit(covs, labels).centroids, target_k=2)
        assert set(trace.final_subset) == {3, 7}

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("kind", ["random", "scaled_identity", "planted"])
    @pytest.mark.parametrize("dim, target_k", [(3, 2), (8, 2), (20, 2), (64, 59)])
    def test_each_step_is_candidate_maximum(self, rng, dim, target_k, kind, n_classes):
        # Independent re-scan: every candidate subset solved on its own
        # with `riemannian_distance`.
        if kind == "random":
            centroids = [rand_spd(rng, dim, spread=0.3) for _ in range(n_classes)]
        elif kind == "scaled_identity":  # one eigenvalue of multiplicity dim
            centroids = [(c + 1.0) * np.eye(dim) for c in range(n_classes)]
        else:  # classes differ on channels 1 and dim - 1 only
            noise = rand_spd(rng, dim - 2, spread=0.3)
            order = np.argsort([1, dim - 1] + [c for c in range(dim) if c not in (1, dim - 1)])
            centroids = [scipy.linalg.block_diag(rand_spd(rng, 2), noise)[np.ix_(order, order)]
                         for _ in range(n_classes)]
        trace = backward_elimination(centroids, target_k=target_k)

        def distance(subset):
            return sum(
                riemannian_distance(restrict_channels(a, subset), restrict_channels(b, subset))
                for i, a in enumerate(centroids) for b in centroids[i + 1:])

        subset = list(range(dim))
        for step in trace.removal_order:
            scores = {ch: distance([c for c in subset if c != ch]) for ch in subset}
            best = max(scores.values())
            assert_allclose(step.distance, best, rtol=1e-12)
            # the removed channel is the maximum, up to ties within rounding
            assert scores[step.removed] >= best * (1 - 1e-12)
            subset.remove(step.removed)
        assert tuple(subset) == trace.final_subset
        full = distance(subset)
        drops = [full - distance([c for c in subset if c != ch]) for ch in subset]
        assert_allclose(trace.final_loo_drops, drops, rtol=1e-12, atol=1e-12 * full)
        if kind == "scaled_identity":  # exact ties: lowest channel index first
            assert [s.removed for s in trace.removal_order] == list(range(dim - target_k))
        if kind == "planted":
            assert set(trace.final_subset) >= {1, dim - 1}

    @pytest.mark.parametrize("case, size", [("near-identical", 1e-2), ("near-identical", 1e-5),
                                            ("near-identical", 1e-8), ("ill-conditioned", 1e3),
                                            ("ill-conditioned", 1e6)])
    def test_distances_against_40_digit_oracle(self, rng, case, size):
        def exact(a, b, subset):
            # sqrt(sum log^2) of the generalized eigenvalues, at 40 digits
            with mpmath.workdps(40):
                chol = mpmath.cholesky(mpmath.matrix(restrict_channels(b, subset).tolist()))
                inv = chol ** -1
                w = mpmath.eigsy(inv * mpmath.matrix(restrict_channels(a, subset).tolist())
                                 * inv.T, eigvals_only=True)
                return float(mpmath.sqrt(sum(mpmath.log(x) ** 2 for x in w)))

        dim, eps = 5, np.finfo(float).eps
        for _ in range(3):
            if case == "near-identical":  # B = W (I + size G) W^T with A = W W^T
                a = rand_spd(rng, dim, spread=0.5)
                g = rng.normal(size=(dim, dim))
                w = np.linalg.cholesky(a)
                b = w @ (np.eye(dim) + size * (g + g.T) / 2) @ w.T
                # distances are O(size), from log-eigenvalues with absolute
                # rounding: relative errors of order eps / size are inherent
                bound = 20 * eps / size
            else:  # condition number `size`
                q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
                a = (q * np.logspace(0, np.log10(size), dim)) @ q.T
                b = rand_spd(rng, dim)
                bound = 1e-12
            trace = backward_elimination([a, b], target_k=2)
            subset = list(range(dim))
            for step in trace.removal_order:
                subset.remove(step.removed)
                assert abs(step.distance - exact(a, b, subset)) <= bound * step.distance
            full = exact(a, b, subset)
            for ch, drop in zip(subset, trace.final_loo_drops):
                rest = exact(a, b, [c for c in subset if c != ch])
                assert abs(drop - (full - rest)) <= bound * full

    @pytest.mark.parametrize("first", [True, False])
    def test_indefinite_centroid_rejected(self, rng, first):
        a = rand_spd(rng, 5)
        w, v = np.linalg.eigh(rand_spd(rng, 5))
        indefinite = (v * np.where(np.arange(5) == 2, -w, w)) @ v.T
        pair = [indefinite, a] if first else [a, indefinite]
        with pytest.raises(ValueError, match="positive definite"):
            backward_elimination(pair, target_k=2)

    def test_strictly_decreasing_subset_chain(self, rng):
        covs, labels = make_spd_dataset(rng, 10, dim=6)
        trace = backward_elimination(mdm_fit(covs, labels).centroids, target_k=2)
        removed = [s.removed for s in trace.removal_order]
        assert len(set(removed)) == len(removed)
        assert set(removed) | set(trace.final_subset) == set(range(6))

    def test_tie_break_lowest_index(self):
        # permutation-symmetric class structure: all candidates tie
        a = np.eye(4)
        b = 2.0 * np.eye(4)
        trace = backward_elimination([a, b], target_k=2)
        assert [s.removed for s in trace.removal_order] == [0, 1]

    def test_target_k_range(self, rng):
        covs, labels = make_spd_dataset(rng, 4, dim=4)
        with pytest.raises(ValueError, match="target_k"):
            backward_elimination(mdm_fit(covs, labels).centroids, target_k=1)
        with pytest.raises(ValueError, match="target_k"):
            backward_elimination(mdm_fit(covs, labels).centroids, target_k=4)

    def test_centroids_checked(self, rng):
        a = rand_spd(rng, 4)
        with pytest.raises(ValueError, match="at least 2"):
            backward_elimination([a], target_k=2)
        with pytest.raises(ValueError, match="differ in dimension"):
            backward_elimination([a, rand_spd(rng, 5)], target_k=2)
        with pytest.raises(ValueError, match="not symmetric"):
            backward_elimination([a, a + np.triu(np.ones((4, 4)), 1)], target_k=2)

    def test_trace_json_round_trip(self, rng):
        covs, labels = make_spd_dataset(rng, 6, dim=5)
        trace = backward_elimination(mdm_fit(covs, labels).centroids, target_k=2)
        back = trace_from_json(trace_to_json(trace))
        assert back == trace
