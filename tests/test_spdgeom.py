import inspect
import json
import os
import pickle
import re
import threading

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from emdscalp import spdgeom
from emdscalp.spdgeom import (
    FrechetMeanError,
    MatrixError,
    SingularMatrixError,
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


def log_spread_pair(rng, dim, spread=3.0):
    """Two random SPD matrices whose log-eigenvalues each span at most
    `spread`: pencils that scipy's ``eigh(a, b)`` solves to near eps."""
    def spd():
        q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        return (q * np.exp(rng.uniform(0.0, spread, dim))) @ q.T
    return spd(), spd()


def far_apart_pair(rng):
    """The first of rotated 8x8 pairs (A, B) whose spectra run from 10^-11.9
    to 1 in opposite orders for which ``_pencil(A, B)``'s whitened matrix
    ``W A W^T`` has a computed eigenvalue that is not positive: each passes
    the floor, the pair is too far apart for double precision."""
    while True:
        qa, qb = (np.linalg.qr(rng.normal(size=(8, 8)))[0] for _ in range(2))
        a = qa @ np.diag(np.logspace(-11.9, 0, 8)) @ qa.T
        b = qb @ np.diag(np.logspace(0, -11.9, 8)) @ qb.T
        a, b = (a + a.T) / 2, (b + b.T) / 2
        w = np.linalg.inv(np.linalg.cholesky(b))
        if not np.linalg.eigvalsh(w @ a @ w.T)[0] > 0:
            return a, b


NON_FINITE = pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
#: The rest of every `SingularMatrixError` message, after the matrix's name.
SINGULAR = ("is singular: its smallest eigenvalue is below 1e-12 of its largest, "
            "or none is positive, or one is not finite$")
#: The rest of the message of a pair too far apart, after the pair's name.
FAR = ("are too far apart to compare in double precision: a generalized eigenvalue "
       "is not finite and positive$")


class TestCovariance:
    def test_white_noise_near_scaled_identity(self, rng):
        sigma = 2.0
        epoch = rng.normal(scale=sigma, size=(4, 20000))
        assert_allclose(covariance([epoch])[0], sigma**2 * np.eye(4), atol=0.1 * sigma**2)

    def test_rank_deficient_epoch_still_spd(self, rng):
        epoch = rng.normal(size=(3, 50))
        epoch = np.vstack([epoch, epoch[0]])  # duplicated channel
        cov = spdgeom.shrink(covariance([epoch])[0], 0.01)
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
        assert_allclose(covariance([epoch]), [s], rtol=1e-12)
        assert_allclose(spdgeom.shrink(covariance([epoch])[0], lam), expected, rtol=1e-12)

    def test_has_no_shrinkage_parameter(self):
        assert list(inspect.signature(covariance).parameters) == ["epochs"]

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_stack_matches_np_cov_of_each_epoch(self, data):
        n = data.draw(st.integers(1, 70), label="n")  # up to three blocks
        c = data.draw(st.sampled_from([1, 2, 5, 21]), label="c")
        t = data.draw(st.integers(2, 40), label="t")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        recording = rng.normal(size=(c, n * t + 3)) * rng.uniform(1e-3, 1e3, size=(c, 1))
        views = [recording[:, 3 + j * t:3 + (j + 1) * t] for j in range(n)]
        expected = np.stack([np.atleast_2d(np.cov(e)) for e in views])
        for epochs in (views, np.stack(views)):
            got = covariance(epochs)
            assert got.shape == (n, c, c)
            assert_allclose(got, expected, rtol=1e-12, atol=0)
        assert covariance(views).tobytes() == covariance(np.stack(views)).tobytes()

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="epoch 0 needs at least 2 samples"):
            covariance([np.ones((3, 1))])

    @pytest.mark.parametrize("j", [0, 2, 40])
    def test_non_finite_rejected(self, rng, j):
        epochs = rng.normal(size=(45, 2, 10))
        epochs[j, 1, 3] = np.inf
        for given_as in (epochs, list(epochs)):
            with pytest.raises(ValueError, match=f"^epoch {j} has a non-finite sample"):
                covariance(given_as)

    def test_shape_mismatch_named(self):
        with pytest.raises(ValueError, match=r"^epoch 2 has shape \(3, 5\)"):
            covariance([np.ones((2, 5)), np.ones((2, 5)), np.ones((3, 5))])
        with pytest.raises(ValueError, match="epoch 0 must be 2-d"):
            covariance([np.ones(5)])
        with pytest.raises(ValueError, match="at least one epoch"):
            covariance([])

    def test_shrinkage_range(self):
        with pytest.raises(ValueError, match="shrinkage"):
            spdgeom.shrink(np.eye(2), 1.0)


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
        with pytest.raises(ValueError, match=r"^second matrix dim \(3, 3\) does not match "
                                             r"\(2, 2\): matrices differ in dimension$"):
            riemannian_distance(np.eye(2), np.eye(3))

    def test_non_spd_rejected(self):
        with pytest.raises(SingularMatrixError, match=f"^first matrix {SINGULAR}"):
            riemannian_distance(np.diag([1.0, -1.0]), np.eye(2))
        with pytest.raises(SingularMatrixError, match=f"^second matrix {SINGULAR}"):
            riemannian_distance(np.eye(2), np.diag([1.0, -1.0]))

    def test_far_apart_regular_pair_is_measured(self, rng):
        # each has condition number 1e7, their pencil a spread of 1e14: the
        # floor holds for each matrix, not for the distance between them
        a, b = np.diag([1e-7, 1.0]), np.diag([1.0, 1e-7])
        assert_allclose(riemannian_distance(a, b), np.sqrt(2.0) * np.log(1e7), rtol=1e-12)
        w = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        assert_allclose(riemannian_distance(w @ a @ w.T, w @ b @ w.T),
                        np.sqrt(2.0) * np.log(1e7), rtol=1e-6)

    def test_asymmetry_within_tolerance_near_the_floor(self):
        # B's symmetric part has eigenvalues 1 and 2e-12; an antisymmetric part
        # of 2e-11, within SYMMETRY_RTOL, makes its lower triangle indefinite
        r = np.sqrt(0.5) * np.array([[1.0, -1.0], [1.0, 1.0]])
        b = r @ np.diag([1.0, 2e-12]) @ r.T
        b += np.array([[0.0, -2e-11], [2e-11, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(b)
        assert_allclose(riemannian_distance(b, np.eye(2)), -np.log(2e-12), rtol=1e-3)

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            riemannian_distance(m, np.eye(2))

    @NON_FINITE
    @pytest.mark.parametrize("first", [True, False])
    def test_non_finite_rejected_before_arithmetic(self, rng, value, first):
        a, bad = rand_spd(rng, 4), rand_spd(rng, 4)
        bad[1, 2] = bad[2, 1] = value
        which = "first" if first else "second"
        with pytest.raises(ValueError, match=f"^{which} matrix has a non-finite entry$"):
            riemannian_distance(*((bad, a) if first else (a, bad)))

    @pytest.mark.parametrize("dim", [1, 2, 8, 21, 64])
    def test_agrees_with_scipy_generalized_eigenvalues(self, rng, dim):
        for _ in range(5):
            a, b = log_spread_pair(rng, dim)
            expected = np.sqrt((np.log(scipy.linalg.eigvalsh(a, b)) ** 2).sum())
            assert abs(riemannian_distance(a, b) - expected) <= 1e-13 * expected


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

    _NO_CONVERGENCE = re.compile(r"no convergence after (\d+) iterations \(residual (\S+); the "
                                 r"largest whitened condition number is (\S+)\)")

    def test_non_convergence_reports_residual(self, rng):
        mats = [rand_spd(rng, 4, spread=0.5) for _ in range(5)]
        with pytest.raises(FrechetMeanError) as err:
            frechet_mean(mats, tol=1e-14, max_iter=1)
        assert err.value.residual > 0
        n, residual, kappa = self._NO_CONVERGENCE.fullmatch(str(err.value)).groups()
        assert (n, residual) == ("1", f"{err.value.residual:.3e}")
        assert 1.0 < float(kappa) < 1e3

    def test_non_convergence_names_an_ill_conditioned_set(self):
        # spectra {1e-11, 1e-6, 1e-3, 1}, one rotation each: every member
        # passes the 1e-12 floor, but the rounding error of each log W_i,
        # which grows with its condition number, stays above tol
        rng = np.random.default_rng(0)
        rotations = [np.linalg.qr(rng.normal(size=(4, 4)))[0] for _ in range(5)]
        mats = [(q * [1e-11, 1e-6, 1e-3, 1.0]) @ q.T for q in rotations]
        with pytest.raises(FrechetMeanError) as err:
            frechet_mean([(m + m.T) / 2 for m in mats])
        n, _, kappa = self._NO_CONVERGENCE.fullmatch(str(err.value)).groups()
        assert n == "50" and float(kappa) > 1e10

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

    def test_paper_shaped_set_converges_in_three_evaluations(self):
        # 144 shrunk covariances of mixed 64-channel, 160-sample epochs with
        # per-epoch scales, like a class set of one paper subject.  Three
        # evaluations need the second Newton step's CG solve to reach tol/4.
        rng = np.random.default_rng(0)
        mix = np.eye(64) + rng.normal(size=(64, 64)) / 8
        mats = spdgeom.shrink(covariance([s * mix @ rng.normal(size=(64, 160))
                                          for s in rng.uniform(0.5, 2.0, 144)]), 0.05)
        expected, _ = plain_frechet_mean(mats, tol=1e-8)
        assert rel_diff(frechet_mean(mats, max_iter=3), expected) <= 1e-9

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


class TestSingularInput:
    """`frechet_mean` takes the logarithm of no matrix with an eigenvalue
    below `EIG_FLOOR_REL` of its largest: it names the first such matrix.
    `_require_log` holds that rule for every kernel."""

    @pytest.fixture
    def no_newton_step(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Newton step was taken")

        monkeypatch.setattr(spdgeom, "_newton_direction", refuse)

    @pytest.mark.parametrize("singular, named", [
        ((37,), 37), ((5,), 5), ((33, 38), 33), ((38, 17), 17)])
    def test_singular_member_named_by_its_index(self, rng, no_newton_step, singular,
                                                named):
        # 40 matrices: two blocks of `_BLOCK`; the others keep the mean SPD
        mats = np.stack([rand_spd(rng, 6) for _ in range(40)])
        for j in singular:
            mats[j] = rank_deficient(rng, 6, 4)
        for stack in (mats, list(mats)):
            with pytest.raises(SingularMatrixError,
                               match=f"^matrix {named} is singular: its smallest") as err:
                frechet_mean(stack)
            assert err.value.index == named
        assert spdgeom.clamped_eigenvalue_count() == 0

    @pytest.mark.parametrize("first_intact, named", [(False, 0), (True, 1)])
    def test_zero_channel_stack_rejected_at_once(self, rng, no_newton_step, first_intact,
                                                 named):
        # the paper's shape at shrinkage 0: 144 64-channel covariances, one
        # channel zero.  In every matrix the mean is singular and matrix 0
        # is named; with matrix 0 intact the mean is not, and matrix 1 is.
        mix = np.eye(64) + rng.normal(size=(64, 64)) / 8
        epochs = np.stack([mix @ rng.normal(size=(64, 160)) for _ in range(144)])
        epochs[int(first_intact):, 9] = 0.0
        mats = covariance(epochs)
        with pytest.raises(SingularMatrixError, match=f"^matrix {named} is singular"):
            frechet_mean(mats)

    @pytest.mark.parametrize("ratio", [0.9e-12, 1.1e-12])
    def test_floor_is_relative_to_the_largest_eigenvalue(self, ratio):
        # one matrix is its own mean, and whitened it is I
        a = np.diag([ratio, 0.5, 1.0]) * 1e-3
        if ratio < spdgeom.EIG_FLOOR_REL:
            with pytest.raises(SingularMatrixError, match="^matrix 0 is singular"):
                frechet_mean([a])
        else:
            assert frechet_mean([a]).tobytes() == a.tobytes()

    @pytest.mark.parametrize("bad", [
        np.zeros((3, 3)), -np.eye(3), np.diag([1.0, 0.0, 1.0]), np.diag([1.0, -1e-3, 1.0])],
        ids=["zero", "negative definite", "zero eigenvalue", "indefinite"])
    def test_matrix_without_a_logarithm_named(self, rng, no_newton_step, bad):
        # whether or not the mean stays positive definite, matrix 2 is named
        mats = [rand_spd(rng, 3) for _ in range(4)]
        mats[2] = bad
        with pytest.raises(SingularMatrixError, match="^matrix 2 is singular"):
            frechet_mean(mats)

    @pytest.mark.parametrize("spectra, named", [
        ([[0.5, 1.0], [np.nan, 1.0]], 1), ([[0.5, np.nan], [0.5, 1.0]], 0),
        ([[0.5, 1.0], [0.5, np.inf]], 1), ([[-np.inf, 1.0], [0.5, 1.0]], 0),
        ([[0.5, 1.0], [-1.0, 0.0]], 1), ([[0.5, 1.0], [1e-13, 1.0]], 1)])
    def test_one_rule_rejects_non_finite_and_non_positive_spectra(self, spectra, named):
        # a NaN fails every comparison, so it fails the floor wherever it stands
        with pytest.raises(SingularMatrixError, match=f"^matrix {4 + named} {SINGULAR}"):
            spdgeom._require_log(np.array(spectra), start=4)
        assert spdgeom._require_log(np.array(spectra[1 - named]))[0] == 0.5

    def test_message_names_a_non_finite_spectrum(self):
        with pytest.raises(SingularMatrixError) as err:
            spdgeom._require_log(np.array([0.5, np.nan]))
        assert str(err.value) == ("matrix 0 is singular: its smallest eigenvalue is below 1e-12 "
                                  "of its largest, or none is positive, or one is not finite")

    def test_singular_iterate_of_regular_matrices_is_a_value_error(self, rng, monkeypatch):
        # a Newton step to exp(40) along one axis leaves the iterate singular
        # to the floor, though every matrix passes it
        def wild(grad, *args):
            return np.diag([40.0] + [0.0] * (len(grad) - 1))

        monkeypatch.setattr(spdgeom, "_newton_direction", wild)
        with pytest.raises(ValueError) as err:
            frechet_mean([rand_spd(rng, 4) for _ in range(5)])
        assert type(err.value) is ValueError
        assert str(err.value) == "a Fréchet-mean iterate is singular, though no matrix is"


def rank_deficient(rng, dim, rank):
    x = rng.normal(size=(dim, rank))
    m = x @ x.T
    return (m + m.T) / 2


class TestMatrixError:
    """`MatrixError` names every matrix, or pair, that a kernel cannot take
    by its index in the caller's stack, whatever the fault."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_damaged_covariance_named_by_its_stack_index(self, data):
        n_classes = data.draw(st.integers(2, 3), label="n_classes")
        dim = data.draw(st.integers(2, 4), label="dim")
        extra = data.draw(st.lists(st.integers(0, n_classes - 1), max_size=6), label="extra")
        classes = data.draw(st.permutations([*range(n_classes), *extra]), label="classes")
        labels = [f"c{k}" for k in classes]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        covs = [rand_spd(rng, dim, spread=0.5) for _ in labels]
        j = data.draw(st.integers(0, len(covs) - 1), label="j")
        kind = data.draw(st.sampled_from(["non-finite", "asymmetric", "zeroed"]), label="kind")
        r, c = data.draw(st.permutations(range(dim)), label="entry")[:2]
        bad = covs[j].copy()
        if kind == "non-finite":
            bad[r, c] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
        elif kind == "asymmetric":
            bad[r, c] += 1e-6 * np.abs(bad).max()
        else:
            bad[r, :] = bad[:, r] = 0.0
        damaged = covs[:j] + [bad] + covs[j + 1:]
        model = mdm_fit(covs, labels)
        for call in (lambda: mdm_fit(damaged, labels), lambda: mdm_predict(model, damaged)):
            with pytest.raises(MatrixError, match=f"^covariance {j} ") as err:
                call()
            assert err.value.index == j

    def test_pickle_keeps_class_and_renamed_message(self):
        # an exception from a worker process comes back through pickle
        for exc in (SingularMatrixError(3, "centroid {j}"),
                    MatrixError(2, "matrix {j}", "has a non-finite entry")):
            exc.rename(7, "covariance {j}")
            back = pickle.loads(pickle.dumps(exc))
            assert (type(back), str(back), back.index) == (type(exc), str(exc), 7)

    @pytest.mark.parametrize("bad, error, args", [
        ([[1.0, 0.5], [0.0, 1.0]], MatrixError,
         (2, "covariance {j}", "is not symmetric within 1e-10 relative")),
        ([[1.0, 0.0], [0.0, 0.0]], SingularMatrixError, (2, "covariance {j}")),
    ], ids=["asymmetric", "singular"])
    def test_renamed_error_keeps_args_in_step(self, bad, error, args):
        # matrix 1 of class "a" is covariance 2 of `covs`; `args` is each
        # class's constructor arguments, so repr and pickle name it so too
        eye = np.eye(2)
        with pytest.raises(error) as err:
            mdm_fit([eye, eye, np.array(bad), eye], ["a", "b", "a", "b"])
        exc = err.value
        assert type(exc) is error and exc.args == args
        assert repr(exc) == f"{error.__name__}{args!r}"
        assert str(exc).startswith("covariance 2 is ")
        back = pickle.loads(pickle.dumps(exc))
        assert (type(back), back.args, str(back)) == (error, args, str(exc))

    def test_pair_beyond_double_precision_is_a_value_error(self, rng):
        # each passes the floor, but their pencil spreads over ~1e23, so the
        # sign of its smallest computed eigenvalue is rounding's
        rejected = 0
        for _ in range(10):
            qa, qb = (np.linalg.qr(rng.normal(size=(8, 8)))[0] for _ in range(2))
            a = qa @ np.diag(np.logspace(-11.5, 0, 8)) @ qa.T
            b = qb @ np.diag(np.logspace(0, -11.5, 8)) @ qb.T
            a, b = (a + a.T) / 2, (b + b.T) / 2
            w = np.linalg.inv(np.linalg.cholesky(a))
            if np.linalg.eigvalsh(w @ b @ w.T)[0] > 0:
                assert np.isfinite(riemannian_distance(a, b))
                continue
            rejected += 1
            with pytest.raises(MatrixError, match=f"^the matrices {FAR}"):
                riemannian_distance(a, b)
        assert rejected

    def test_pair_too_far_apart_names_covariance_and_centroid(self):
        a, b = far_apart_pair(np.random.default_rng(0))
        model = spdgeom.MDMModel(classes=("a", "b"), centroids=(np.eye(8), b))
        with pytest.raises(MatrixError, match=f"^covariance 2 and centroid 1 {FAR}") as err:
            mdm_predict(model, [np.eye(8), 2.0 * np.eye(8), a])
        assert (err.value.index, err.value.what) == (2, "covariance {j} and centroid 1")

    def test_centroid_pair_too_far_apart_named(self):
        a, b = far_apart_pair(np.random.default_rng(0))
        with pytest.raises(MatrixError, match=f"^centroid 0 and centroid 1 {FAR}"):
            backward_elimination([a, b], target_k=2)


class TestConcurrentClasses:
    """`mdm_fit` fits its classes on a thread pool, up to one worker per CPU."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(spdgeom, "_usable_cpus", lambda: 2)

    def test_usable_cpus_without_an_affinity_call(self, monkeypatch):
        # a platform without os.sched_getaffinity counts every CPU, at least one
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for count, usable in ((3, 3), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            assert spdgeom._usable_cpus() == usable

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_centroids_byte_identical_for_any_cpu_count(self, rng, monkeypatch, n_classes):
        covs = [rand_spd(rng, 6) for _ in range(6 * n_classes)]
        labels = [i % n_classes for i in range(len(covs))]
        fits = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(spdgeom, "_usable_cpus", lambda: cpus)
            fits.append([c.tobytes() for c in mdm_fit(covs, labels).centroids])
        assert fits[0] == fits[1] == fits[2]
        want = [frechet_mean([c for c, lab in zip(covs, labels) if lab == k]).tobytes()
                for k in range(n_classes)]
        assert fits[0] == want

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_later_classes_run_on_helper_threads(self, rng, monkeypatch, cpus):
        # with two CPUs both classes wait at the barrier until the other one
        # arrives, so they run at once on two threads
        monkeypatch.setattr(spdgeom, "_usable_cpus", lambda: cpus)
        threads, barrier = {}, threading.Barrier(cpus, timeout=30)

        def mean(mats):
            threads[len(mats)] = threading.get_ident()
            barrier.wait()
            return frechet_mean(mats)

        monkeypatch.setattr(spdgeom, "frechet_mean", mean)
        mdm_fit([rand_spd(rng, 3) for _ in range(5)], ["a", "a", "b", "b", "b"])
        assert len(threads) == 2 and len(set(threads.values())) == cpus

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("singular, named", [
        ({"b": (3,)}, 7), ({"a": (2,), "b": (0,)}, 4), ({"b": (0,), "a": (1,)}, 2)])
    def test_first_singular_class_named_in_covs(self, rng, monkeypatch, cpus, singular,
                                                named):
        # class "a" holds covariances 0, 2, 4, 6, 8 and "b" 1, 3, 5, 7, 9: a
        # singular member is named by its place in `covs`, by the first
        # failing class in class order, from the helper thread that fits it
        monkeypatch.setattr(spdgeom, "_usable_cpus", lambda: cpus)
        covs = np.stack([rand_spd(rng, 4) for _ in range(10)])
        labels = ["a", "b"] * 5
        for cls, positions in singular.items():
            for k in positions:
                covs[2 * k + (cls == "b")] = rank_deficient(rng, 4, 2)
        raised_on = []

        def mean(mats):
            try:
                return frechet_mean(mats)
            except SingularMatrixError:
                raised_on.append(threading.get_ident())
                raise

        monkeypatch.setattr(spdgeom, "frechet_mean", mean)
        with pytest.raises(SingularMatrixError,
                           match=f"^covariance {named} is singular: ") as err:
            mdm_fit(covs, labels)
        assert err.value.index == named
        assert raised_on and threading.get_ident() not in raised_on

    @pytest.mark.parametrize("failing", [(0,), (1,), (0, 1), (1, 2)])
    def test_first_failing_class_in_order_raises(self, rng, monkeypatch, failing):
        covs = [rand_spd(rng, 3) for _ in range(9)]
        labels = [0, 1, 2] * 3

        def mean(mats):
            k = next(k for k in range(3) if mats[0].tobytes() == covs[k].tobytes())
            if k in failing:
                raise ValueError(f"class {k} failed")
            return frechet_mean(mats)

        monkeypatch.setattr(spdgeom, "frechet_mean", mean)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(spdgeom, "_usable_cpus", lambda: cpus)
            with pytest.raises(ValueError, match=f"^class {failing[0]} failed$"):
                mdm_fit(covs, labels)

    def test_non_convergence_raises_the_first_class_error(self, rng, monkeypatch, two_cpus):
        covs = [rand_spd(rng, 5, spread=2.0) for _ in range(8)]
        labels = ["x", "y"] * 4
        with pytest.raises(FrechetMeanError) as first:
            frechet_mean(covs[0::2], max_iter=1)
        monkeypatch.setattr(spdgeom, "frechet_mean", lambda mats: frechet_mean(mats, max_iter=1))
        with pytest.raises(FrechetMeanError) as fit:
            mdm_fit(covs, labels)
        assert str(fit.value) == str(first.value)
        assert fit.value.residual == first.value.residual


class TestStackedKernels:
    """A stack of matrices gives the bytes of its matrices one by one."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(data=st.data())
    def test_shrink_of_a_stack_is_shrink_of_each(self, data):
        n = data.draw(st.integers(1, 70), label="n")  # up to three blocks
        dim = data.draw(st.integers(1, 20), label="dim")
        # includes -0.0 and subnormals
        stack = data.draw(hnp.arrays(np.float64, (n, dim, dim),
                                     elements=st.floats(-1e100, 1e100)), label="stack")
        shrinkage = data.draw(st.floats(0.0, 1.0, exclude_max=True), label="shrinkage")
        # the one-matrix formula
        expected = np.stack([(1.0 - shrinkage) * m + shrinkage * (np.trace(m) / dim)
                             * np.eye(dim) for m in stack])
        assert spdgeom.shrink(stack, shrinkage).tobytes() == expected.tobytes()
        assert np.stack([spdgeom.shrink(m, shrinkage) for m in stack]).tobytes() \
            == expected.tobytes()

    @pytest.mark.parametrize("dim", [2, 21, 64])
    @pytest.mark.parametrize("n", [5, 40])
    def test_frechet_mean_of_a_stack_is_that_of_the_list(self, rng, monkeypatch, dim, n):
        mats = np.stack([rand_spd(rng, dim) for _ in range(n)])
        mean = frechet_mean(mats)
        assert mean.tobytes() == frechet_mean(list(mats)).tobytes()
        monkeypatch.setattr(spdgeom, "_BLOCK", 1)  # one matrix per batched call
        assert mean.tobytes() == frechet_mean(mats).tobytes()

    @pytest.mark.parametrize("dim", [8, 64])
    @NON_FINITE
    def test_frechet_mean_rejects_non_finite_input(self, rng, dim, value):
        mats = [rand_spd(rng, dim) for _ in range(20)]
        mats[13][1, 4] = mats[13][4, 1] = value
        with pytest.raises(ValueError, match="matrix 13 has a non-finite entry"):
            frechet_mean(mats)
        with pytest.raises(ValueError, match="matrix 13 has a non-finite entry"):
            frechet_mean(np.stack(mats))

    @pytest.mark.parametrize("call, what", [
        (frechet_mean, "matrix"),
        (lambda mats: mdm_fit(mats, [0, 1] * 3), "covariance"),
        (lambda mats: mdm_predict(spdgeom.MDMModel((0, 1), (np.eye(4),) * 2), mats),
         "covariance"),
        (lambda mats: backward_elimination(mats, target_k=2), "centroid"),
    ], ids=["frechet_mean", "mdm_fit", "mdm_predict", "backward_elimination"])
    def test_matrix_of_another_shape_is_named(self, rng, call, what):
        mats = [rand_spd(rng, 4) for _ in range(6)]
        mats[3] = rand_spd(rng, 5)
        with pytest.raises(ValueError,
                           match=rf"^{what} 3 dim \(5, 5\) does not match \(4, 4\)"):
            call(mats)

    @pytest.mark.parametrize("shape", [(2, 3), (4,)])
    def test_matrix_0_that_is_not_square_is_named(self, shape):
        with pytest.raises(MatrixError, match=f"^matrix 0 must be square, got shape "
                                              f"{re.escape(str(shape))}$"):
            frechet_mean([np.ones(shape)] * 2)

    @pytest.mark.parametrize("covs, labels, message", [
        ([np.eye(2)], ["a", "b"], "covs and labels lengths differ"),
        ([], [], "no training examples"),
    ])
    def test_mdm_fit_needs_one_label_per_covariance(self, covs, labels, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            mdm_fit(covs, labels)

    def test_one_matrix_is_not_a_stack(self, rng):
        with pytest.raises(ValueError, match=r"^expected an \(n, d, d\) stack, got shape "
                                             r"\(3, 3\)$"):
            frechet_mean(rand_spd(rng, 3))


class TestMDM:
    def test_single_example_classes_yield_those_centroids(self, rng):
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        model = mdm_fit([a, b], ["Left", "Right"])
        assert_allclose(model.centroids[0], a, rtol=1e-8, atol=1e-10)
        assert_allclose(model.centroids[1], b, rtol=1e-8, atol=1e-10)

    def test_predict_centroid_recovers_class(self, rng):
        covs, labels = make_spd_dataset(rng, 10, dim=4, discriminative=(1,))
        model = mdm_fit(covs, labels)
        assert mdm_predict(model, model.centroids) == list(model.classes)

    def test_separable_data_accuracy(self, rng):
        covs, labels = make_spd_dataset(rng, 40, dim=8)
        train = covs[:30] + covs[40:70]
        train_labels = labels[:30] + labels[40:70]
        test = covs[30:40] + covs[70:80]
        test_labels = labels[30:40] + labels[70:80]
        model = mdm_fit(train, train_labels)
        preds = mdm_predict(model, test)
        acc = np.mean([p == t for p, t in zip(preds, test_labels)])
        assert acc >= 0.95

    def test_training_order_invariance(self, rng):
        covs, labels = make_spd_dataset(rng, 8, dim=4)
        model = mdm_fit(covs, labels)
        perm = rng.permutation(len(covs))
        shuffled = mdm_fit([covs[i] for i in perm], [labels[i] for i in perm])
        assert model.classes == shuffled.classes == ("Left", "Right")
        for c1, c2 in zip(model.centroids, shuffled.centroids):
            assert_allclose(c1, c2, atol=1e-8)

    def test_copied_channel_covariances_rejected_never_scored(self):
        # 160-sample epochs with channel 5 a copy of channel 4: each covariance
        # has a smallest eigenvalue within rounding of 0, of either sign (here
        # 4.6e-17, -6.9e-19 and -3.7e-17 of the largest), so a test of the sign
        # alone would score covariance 0 and name covariance 1 of the stack
        x = np.random.default_rng(4).normal(size=(3, 6, 160))
        x[:, 5] = x[:, 4]
        covs = covariance(x)
        model = spdgeom.MDMModel(classes=("a", "b"), centroids=(np.eye(6), 2.0 * np.eye(6)))
        for given_as in (list, np.stack):
            with pytest.raises(SingularMatrixError, match=f"^covariance 0 {SINGULAR}") as err:
                mdm_predict(model, given_as(list(covs)))
            assert err.value.index == 0
        for j, cov in enumerate(covs):
            with pytest.raises(SingularMatrixError, match=f"^covariance 0 {SINGULAR}"):
                mdm_predict(model, [cov])
            with pytest.raises(SingularMatrixError, match=f"^second matrix {SINGULAR}"):
                riemannian_distance(model.centroids[j % 2], cov)

    def test_epoch_far_from_a_centroid_is_scored(self):
        # regular matrices of condition number 1e7, their pencil spread 1e14
        model = spdgeom.MDMModel(classes=("a", "b"),
                                 centroids=(np.diag([1e-7, 1.0]), np.eye(2)))
        assert mdm_predict(model, [np.diag([1.0, 1e-7]), np.diag([1e-7, 2.0])]) == ["b", "a"]

    def test_equidistant_tie_goes_to_first_sorted_class(self):
        a, b = np.diag([1.0, 4.0]), np.diag([4.0, 1.0])
        for labels in (["Left", "Right"], ["Right", "Left"]):
            model = mdm_fit([a, b], labels)
            assert mdm_predict(model, [np.eye(2)]) == ["Left"]

    def test_classes_in_sorted_label_order(self, rng):
        covs = [rand_spd(rng, 3) for _ in range(5)]
        labels = ["b", "a", "b", "a", "a"]
        model = mdm_fit(covs, labels)
        assert model.classes == ("a", "b")
        for cls, centroid in zip(model.classes, model.centroids):
            mats = np.stack([c for c, lab in zip(covs, labels) if lab == cls])
            assert centroid.tobytes() == frechet_mean(mats).tobytes()

    def test_decision_congruence_invariance(self, rng):
        covs, labels = make_spd_dataset(rng, 6, dim=4)
        model = mdm_fit(covs, labels)
        w = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        transformed = mdm_fit([w @ c @ w.T for c in covs], labels)
        assert mdm_predict(model, covs[:6]) == mdm_predict(
            transformed, [w @ c @ w.T for c in covs[:6]])

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_predict_is_argmin_of_distances(self, data):
        dim = data.draw(st.integers(2, 5), label="dim")
        n_classes = data.draw(st.integers(2, 3), label="n_classes")
        n_test = data.draw(st.integers(1, 6), label="n_test")
        factor = hnp.arrays(np.float64, (dim, dim), elements=st.floats(-3.0, 3.0))

        def spd():
            b = data.draw(factor)
            return b @ b.T + 0.1 * np.eye(dim)

        model = spdgeom.MDMModel(classes=tuple(f"c{k}" for k in range(n_classes)),
                                 centroids=tuple(spd() for _ in range(n_classes)))
        covs = [spd() for _ in range(n_test)]
        preds = mdm_predict(model, covs)
        for x, pred in zip(covs, preds):
            d = [riemannian_distance(c, x) for c in model.centroids]
            best = min(d)
            # batched and one-matrix whitening may round differently: a near-tie may
            # go either way, but never to a class that is not nearest
            assert d[model.classes.index(pred)] <= best * (1 + 1e-9) + 1e-12
            if sorted(d)[1] > best * (1 + 1e-9) + 1e-12:
                assert pred == model.classes[int(np.argmin(d))]

        j = data.draw(st.integers(0, n_test - 1), label="bad index")
        kind = data.draw(st.sampled_from(["indefinite", "asymmetric", "nan"]), label="kind")
        bad = covs[j].copy()
        if kind == "indefinite":
            bad -= (np.linalg.eigvalsh(bad)[0] + 0.5) * np.eye(dim)
            message = f"covariance {j} {SINGULAR}"
        elif kind == "asymmetric":
            bad[0, 1] += 1e-6 * np.abs(bad).max()
            message = f"covariance {j} is not symmetric"
        else:
            bad[-1, -1] = np.nan
            message = f"covariance {j} has a non-finite entry"
        for given_as in (list, np.stack):
            with pytest.raises(ValueError, match=message):
                mdm_predict(model, given_as(covs[:j] + [bad] + covs[j + 1:]))

    @NON_FINITE
    def test_non_finite_rejected_before_arithmetic(self, rng, value):
        covs, labels = make_spd_dataset(rng, 4, dim=4)
        model = mdm_fit(covs, labels)
        bad = covs[5].copy()
        bad[0, 3] = bad[3, 0] = value
        for given_as in (list, np.stack):
            with pytest.raises(ValueError,
                               match="^covariance 5 has a non-finite entry$"):
                mdm_predict(model, given_as(covs[:5] + [bad] + covs[6:]))
        broken = spdgeom.MDMModel(model.classes, (model.centroids[0], bad))
        with pytest.raises(ValueError, match="^centroid 1 has a non-finite entry$"):
            mdm_predict(broken, covs)

    def test_predict_empty_sequence(self, rng):
        covs, labels = make_spd_dataset(rng, 4, dim=4)
        assert mdm_predict(mdm_fit(covs, labels), []) == []

    def test_missing_class_rejected(self, rng):
        a = rand_spd(rng, 3)
        with pytest.raises(ValueError, match="at least 2 classes"):
            mdm_fit([a, a], ["Left", "Left"])

    def test_dim_mismatch_on_predict(self, rng):
        covs, labels = make_spd_dataset(rng, 4, dim=4)
        model = mdm_fit(restrict_channels(covs, (0, 1)), labels)
        with pytest.raises(ValueError, match="does not match"):
            mdm_predict(model, [covs[0]])
        with pytest.raises(ValueError, match=r"covariance 1 dim \(4, 4\) does not match"):
            mdm_predict(model, [covs[0][:2, :2], covs[0]])
        with pytest.raises(ValueError, match=r"covariance 0 dim \(4, 4\) does not match"):
            mdm_predict(model, np.stack(covs[:3]))

    @pytest.mark.parametrize("channel", [-1, 5])
    def test_restrict_channels_rejects_an_index_out_of_range(self, rng, channel):
        covs = np.stack([rand_spd(rng, 5) for _ in range(3)])
        for given_as in (covs, covs[0]):
            with pytest.raises(ValueError, match=r"^channel subset out of range for dim 5$"):
                restrict_channels(given_as, [0, channel])


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
        with pytest.raises(SingularMatrixError,
                           match=f"^centroid {0 if first else 1} {SINGULAR}"):
            backward_elimination(pair, target_k=2)

    @NON_FINITE
    @pytest.mark.parametrize("first", [True, False])
    def test_non_finite_centroid_rejected_before_arithmetic(self, rng, value, first):
        a, bad = rand_spd(rng, 5), rand_spd(rng, 5)
        bad[2, 2] = value
        with pytest.raises(ValueError, match=f"^centroid {0 if first else 1} has a non-finite "
                                             "entry$"):
            backward_elimination([bad, a] if first else [a, bad], target_k=2)

    @pytest.mark.parametrize("dim", [1, 2, 8, 21, 64])
    def test_pencil_agrees_with_scipy_eigh(self, rng, dim):
        # the same eigenvalues, and eigenvectors that diagonalize both
        # matrices as scipy's do
        for _ in range(5):
            a, b = log_spread_pair(rng, dim)
            lam, x = spdgeom._pencil(a, b, vectors=True)
            assert np.abs(np.log(lam) - np.log(scipy.linalg.eigh(a, b)[0])).max() <= 1e-12
            assert np.abs(x.T @ b @ x - np.eye(dim)).max() <= 1e-13
            assert np.abs(x.T @ a @ x - np.diag(lam)).max() <= 1e-14 * lam[-1]

    @pytest.mark.parametrize("kind", ["indefinite", "below the floor"])
    def test_covariance_without_a_logarithm_named_by_its_own_spectrum(self, rng, kind):
        # covariance 3 fails the floor; covariance 1 is 1e-13 of a centroid,
        # a pencil far below the floor, but regular itself
        good = rand_spd(rng, 4)
        model = spdgeom.MDMModel(classes=("a", "b"), centroids=(good, 2.0 * good))
        stack = np.array([rand_spd(rng, 4) for _ in range(5)])
        w, v = np.linalg.eigh(stack[3])
        w[0] = -0.5 if kind == "indefinite" else 1e-13 * w[-1]
        stack[3] = (v * w) @ v.T
        stack[1] = 1e-13 * good
        with pytest.raises(SingularMatrixError, match=f"^covariance 3 {SINGULAR}") as err:
            mdm_predict(model, stack)
        assert err.value.index == 3
        assert mdm_predict(model, stack[:3])[1] == "a"

    @pytest.mark.parametrize("kind", ["indefinite", "below the floor"])
    def test_model_centroid_without_a_logarithm_named(self, rng, kind):
        # named before any covariance is whitened by it
        good = rand_spd(rng, 4)
        w, v = np.linalg.eigh(good)
        w[0] = -0.5 if kind == "indefinite" else 1e-13 * w[-1]
        model = spdgeom.MDMModel(classes=("a", "b"), centroids=(good, (v * w) @ v.T))
        with pytest.raises(SingularMatrixError, match=f"^centroid 1 {SINGULAR}") as err:
            mdm_predict(model, [rand_spd(rng, 4)])
        assert err.value.index == 1

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
        # 1 <= k <= d, the rule of relevance.top_k: k = d takes no step, and
        # k = 1 ends on one channel, whose leave-one-out distance is 0
        covs, labels = make_spd_dataset(rng, 4, dim=4)
        centroids = mdm_fit(covs, labels).centroids
        for k in (0, 5):
            with pytest.raises(ValueError, match=rf"^target_k must be in \[1, 4\], got {k}$"):
                backward_elimination(centroids, target_k=k)
        whole = backward_elimination(centroids, target_k=4)
        assert (whole.removal_order, whole.final_subset) == ((), (0, 1, 2, 3))
        one = backward_elimination(centroids, target_k=1)
        assert len(one.removal_order) == 3 and len(one.final_subset) == 1
        assert one.final_loo_drops[0] == pytest.approx(one.removal_order[-1].distance)

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

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_elimination_trace_round_trips(self, data):
        dim = data.draw(st.integers(3, 8), label="dim")
        target_k = data.draw(st.integers(2, dim - 1), label="target_k")
        n_classes = data.draw(st.integers(2, 3), label="n_classes")
        factor = hnp.arrays(np.float64, (dim, dim), elements=st.floats(-3.0, 3.0))
        centroids = [b @ b.T + 0.1 * np.eye(dim)
                     for b in (data.draw(factor) for _ in range(n_classes))]
        trace = backward_elimination(centroids, target_k)
        assert trace_from_json(trace_to_json(trace)) == trace

    @pytest.mark.parametrize("edit, message", [
        ({"removed": [0, 0]}, "remove or keep each channel 0..3 exactly once, not [0, 0, 1, 2]"),
        ({"final_subset": [0, 2]},
         "remove or keep each channel 0..3 exactly once, not [0, 0, 2, 3]"),
        ({"final_subset": [1], "final_loo_drops": [0.5]},
         "remove or keep each channel 0..2 exactly once, not [0, 1, 3]"),
        ({"final_subset": [1, -2]},
         "remove or keep each channel 0..3 exactly once, not [-2, 0, 1, 3]"),
        ({"final_loo_drops": [0.5]}, "give one drop per survivor, not 1 for 2"),
    ], ids=["removed twice", "removed and kept", "missing", "out of range", "drop too few"])
    def test_trace_must_cover_each_channel_once(self, edit, message):
        # channels 0..3: 0 and 3 removed, 1 and 2 kept
        doc = {"removed": [0, 3], "final_subset": [1, 2], "final_loo_drops": [0.5, 0.25],
               **edit}
        text = json.dumps({
            "format_version": 1, "final_subset": doc["final_subset"],
            "final_loo_drops": doc["final_loo_drops"],
            "removal_order": [{"iteration": i, "removed": c, "distance": 1.0}
                              for i, c in enumerate(doc["removed"], start=1)]})
        with pytest.raises(ValueError, match=re.escape(f"trace must {message}")):
            trace_from_json(text)

    @pytest.mark.parametrize("step, final_subset, drop, message", [
        ({"removed": 0.9}, [1, 2], 0.5, "removed must be a JSON integer, not 0.9"),
        ({"removed": 1.0}, [0, 2], 0.5, "removed must be a JSON integer, not 1.0"),
        ({}, [True, 2], 0.5, "final_subset must be a JSON integer, not True"),
        ({}, [1.0, 2], 0.5, "final_subset must be a JSON integer, not 1.0"),
        ({"iteration": True, "removed": "0", "distance": "1.5"}, [1, 2], 0.5,
         "iteration must be a JSON integer, not True"),
        ({"removed": "0"}, [1, 2], 0.5, "removed must be a JSON integer, not '0'"),
        ({"distance": "1.5"}, [1, 2], 0.5, "distance must be a JSON number, not '1.5'"),
        ({"distance": True}, [1, 2], 0.5, "distance must be a JSON number, not True"),
        ({}, [1, 2], "0.5", "final_loo_drops must be a JSON number, not '0.5'"),
        ({}, [1, 2], None, "final_loo_drops must be a JSON number, not None"),
    ], ids=["fractional channel", "float channel", "bool survivor", "float survivor",
            "bool and string step", "string channel", "string distance", "bool distance",
            "string drop", "null drop"])
    def test_trace_fields_must_be_json_numbers_of_their_kind(self, step, final_subset,
                                                            drop, message):
        # channels 0..3: 0 and 3 removed, 1 and 2 kept; `step` edits the first step
        text = json.dumps({
            "format_version": 1, "final_subset": final_subset, "final_loo_drops": [drop, 0.25],
            "removal_order": [{"iteration": 1, "removed": 0, "distance": 1.0, **step},
                              {"iteration": 2, "removed": 3, "distance": 1.0}]})
        with pytest.raises(ValueError, match=f"^{re.escape(f'trace {message}')}$"):
            trace_from_json(text)

    @pytest.mark.parametrize("edit, message", [
        ("5", "trace must be a JSON object, not 5"),
        ({"removal_order": {}}, "trace removal_order must be a JSON array, not dict"),
        ({"removal_order": [3]}, "trace removal_order must be a JSON object, not 3"),
        ({"format_version": True}, "trace format_version must be a JSON integer, not True"),
        ({"format_version": 2}, "unsupported trace format_version: 2"),
        ({"final_subset": ...}, "trace final_subset must be a JSON array, not None"),
        ({"final_loo_drops": [float("nan")]}, "trace final_loo_drops must be a JSON number, "
                                              "not nan"),
    ], ids=["integer document", "removal_order object", "integer step", "bool version",
            "version 2", "no final_subset", "NaN drop"])
    def test_malformed_trace_names_its_field(self, edit, message):
        """`edit` is a change to a valid trace (``...`` drops the key), or the whole text."""
        doc = {"format_version": 1, "final_subset": [1], "final_loo_drops": [0.5],
               "removal_order": [{"iteration": 1, "removed": 0, "distance": 1.0}]}
        text = edit if isinstance(edit, str) else json.dumps(
            {k: v for k, v in dict(doc, **edit).items() if v is not ...})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            trace_from_json(text)

    @pytest.mark.parametrize("ulps", [[-1, -1, 0, 0, 2], [-1, 0, 0, 0, 2]])
    def test_leave_one_out_of_a_cluster_a_few_ulps_wide(self, rng, ulps):
        # the centre of the focal interval rounds half an ulp off centre, which
        # puts the top log-eigenvalue past the end of the interval
        loglam = -3.0 + np.spacing(3.0) * np.array(ulps, dtype=float)
        x = np.linalg.qr(rng.normal(size=(5, 5)))[0]
        assert_allclose(spdgeom._leave_one_out_sq(loglam, x), 4 * 9.0, rtol=1e-14)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scores_do_not_depend_on_class_order(self, data):
        # the classes' sorted order decides which centroid whitens the pencil
        dim = data.draw(st.integers(3, 12), label="dim")
        factor = hnp.arrays(np.float64, (dim, dim), elements=st.floats(-1.0, 1.0))
        loglam = hnp.arrays(np.float64, dim, elements=st.floats(-3.0, 3.0))
        centroids = []
        for _ in range(2):
            q = np.linalg.qr(data.draw(factor))[0]
            centroids.append((q * np.exp(data.draw(loglam))) @ q.T)
        centroids = np.array(centroids)
        subset = list(range(dim))
        full, loo = spdgeom._distances(centroids, subset)
        back_full, back_loo = spdgeom._distances(centroids[::-1], subset)
        tol = 1e-10 * full + 1e-12  # and the absolute rounding of log-eigenvalues
        assert abs(back_full - full) <= tol
        # a score is the root of a rounded sum of squares, which can read
        # ~sqrt(eps) * full where it is 0: compare the squares, as |a - b| <= tol
        # bounds them for scores a, b up to the full distance
        assert np.abs(back_loo ** 2 - loo ** 2).max() <= tol * (2 * full + tol)

    @pytest.mark.parametrize("dim", [3, 8, 21])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_channel_that_carries_the_whole_distance_drops_all_of_it(self, dim, reverse):
        # the classes differ in channel 0 alone, by a log-eigenvalue of 1: leaving
        # it out leaves distance 0, not a rounding residue of ~sqrt(eps)
        a, b = np.eye(dim), np.diag([np.e] + [1.0] * (dim - 1))
        pair = [b, a] if reverse else [a, b]
        assert spdgeom._distances(np.array(pair), list(range(dim)))[1][0] == 0.0
        assert backward_elimination(pair, 2).final_loo_drops == (1.0, 0.0)
