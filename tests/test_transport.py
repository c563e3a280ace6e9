import numpy as np
import pytest
from numpy.testing import assert_allclose

from emdscalp import transport
from emdscalp.montage import SpatialMap, binary_map, weighted_map
from emdscalp.relevance import MI_BASELINE_CHANNELS, mi_baseline
from emdscalp.transport import TransportError, emd, ground_cost, rebalance, solve_transport

from helpers import lp_emd, random_map_pair


def unit_at(n, row, col, mass=1.0):
    m = np.zeros((n, n))
    m[row, col] = mass
    return SpatialMap(n, m)


class TestGroundCost:
    def test_three_four_five(self):
        c = ground_cost([(0, 0)], [(3, 4)], "euclidean")
        assert c[0, 0] == 5.0

    def test_zero_diagonal_on_identical_lists(self):
        cells = [(0, 0), (1, 2), (3, 3)]
        c = ground_cost(cells, cells, "euclidean")
        assert_allclose(np.diag(c), 0.0)

    def test_manhattan(self):
        c = ground_cost([(0, 0)], [(1, 1)], "manhattan")
        assert c[0, 0] == 2.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ground_cost([], [(0, 0)])

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            ground_cost([(0, 0)], [(0, 0)], "chebyshev")


class TestSolveTransport:
    def test_single_cell(self):
        f = solve_transport(np.array([2.0]), np.array([2.0]), np.array([[3.0]]))
        assert_allclose(f, [[2.0]])

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError, match="unbalanced"):
            solve_transport(np.array([1.0]), np.array([2.0]), np.array([[1.0]]))

    def test_shapes_other_than_the_costs_rejected(self):
        with pytest.raises(ValueError, match="^supply/demand shapes do not match the cost "
                                             "matrix$"):
            solve_transport(np.array([1.0, 1.0]), np.array([2.0]), np.array([[1.0]]))

    def test_degenerate_equal_masses(self):
        # many zero-flow pivots but the optimum is still the identity pairing
        n = 8
        cost = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        f = solve_transport(np.ones(n), np.ones(n), cost)
        assert_allclose((cost * f).sum(), 0.0, atol=1e-12)

    def test_solver_failure_raises_named_error(self):
        # A feasible plan that swaps two unit masses, with the duals of the
        # optimal (staying) plan: every reduced cost is >= 0, so only the gap
        # between its cost 2 and the dual value 0 shows it is not optimal.
        a = np.ones(2)
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        u, v = np.array([0.0, -1.0]), np.array([0.0, 1.0])
        transport._certify(a, a, cost, np.eye(2), u, v)
        with pytest.raises(TransportError, match="duality gap 2"):
            transport._certify(a, a, cost, np.eye(2)[::-1], u, v)

    def test_certificate_names_infeasible_duals_and_flows(self):
        a = np.ones(2)
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(TransportError, match="reduced cost -2"):
            transport._certify(a, a, cost, np.eye(2), np.zeros(2), np.array([0.0, 2.0]))
        u, v = np.array([0.0, -1.0]), np.array([0.0, 1.0])
        with pytest.raises(TransportError, match="marginals off by 5"):
            transport._certify(a, a, cost, np.diag([1.0, 2.0]), u, v)
        with pytest.raises(TransportError, match="finite and nonnegative"):
            transport._certify(a, a, cost, np.array([[1.5, -0.5], [-0.5, 1.5]]), u, v)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="positive and finite"):
            solve_transport(np.array([np.nan]), np.array([1.0]), np.array([[1.0]]))
        with pytest.raises(ValueError, match="positive and finite"):
            solve_transport(np.array([1.0, np.inf]), np.array([1.0, 1.0]), np.ones((2, 2)))
        with pytest.raises(ValueError, match="costs must be finite"):
            solve_transport(np.ones(2), np.ones(2), np.array([[0.0, np.nan], [1.0, 0.0]]))

    def test_zero_entry_rejected(self):
        for supply, demand in (([1.0, 0.0], [1.0]), ([1.0], [0.0, 1.0])):
            with pytest.raises(ValueError, match="^supply and demand entries must be positive "
                                                 "and finite$"):
                solve_transport(np.array(supply), np.array(demand),
                                np.ones((len(supply), len(demand))))

    def test_blands_rule_reaches_the_same_optimum(self, rng, monkeypatch):
        # Bland's rule takes over after m * k Dantzig pivots; from pivot 0 it
        # must still end in a certified optimum of the same cost.
        problems = []
        for _ in range(20):
            p, q = random_map_pair(rng, int(rng.integers(2, 6)))
            pm, qm = p.mass.ravel(), q.mass.ravel()
            cells = [(c // p.n, c % p.n) for c in range(p.n * p.n)]
            src, dst = np.flatnonzero(pm), np.flatnonzero(qm)
            cost = ground_cost([cells[c] for c in src], [cells[c] for c in dst])
            problems.append((pm[src], qm[dst], cost))
        dantzig = [(c * solve_transport(a, b, c)).sum() for a, b, c in problems]
        monkeypatch.setattr(transport, "_dantzig_pivots", lambda m, k: 0)
        bland = [(c * solve_transport(a, b, c)).sum() for a, b, c in problems]
        assert_allclose(bland, dantzig, rtol=1e-12, atol=1e-12)


class TestEMD:
    def test_identity_distance_zero(self, layout, rng):
        m = SpatialMap(5, rng.random((5, 5)))
        res = emd(m, m)
        assert res.distance <= 1e-12

    def test_forced_single_move(self):
        res = emd(unit_at(5, 0, 0), unit_at(5, 0, 3))
        assert_allclose(res.distance, 3.0, rtol=1e-12)

    def test_matches_lp_oracle_on_random_pairs(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 7))
            p, q = random_map_pair(rng, n)
            got = emd(p, q).distance
            want = lp_emd(p, q)
            assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_matches_lp_oracle_manhattan(self, rng):
        for _ in range(10):
            p, q = random_map_pair(rng, 5)
            got = emd(p, q, metric="manhattan").distance
            want = lp_emd(p, q, metric="manhattan")
            assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_normalized_mode_matches_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            p, _ = random_map_pair(rng, n)
            q = SpatialMap(n, random_map_pair(rng, n)[0].mass * 3.7)
            got = emd(p, q, mass_mode="normalized").distance
            want = lp_emd(p, q, normalize=True)
            assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_symmetry(self, rng):
        for _ in range(25):
            p, q = random_map_pair(rng, 5)
            d1 = emd(p, q).distance
            d2 = emd(q, p).distance
            assert abs(d1 - d2) <= 1e-9 * max(d1, d2, 1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(25):
            p, q = random_map_pair(rng, 4)
            r = SpatialMap(4, random_map_pair(rng, 4)[0].mass)
            r = SpatialMap(4, r.mass * (p.total / r.total))
            dpq = emd(p, q).distance
            dqr = emd(q, r).distance
            dpr = emd(p, r).distance
            assert dpr <= dpq + dqr + 1e-9

    def test_positive_homogeneity(self, rng):
        for _ in range(15):
            p, q = random_map_pair(rng, 5)
            base = emd(p, q).distance
            # a random scale, then masses far from 1, where absolute solver
            # tolerances would swamp or exceed the masses
            for c in (float(rng.random() * 10 + 0.1), 1e-12, 1e-8, 1e9, 1e12):
                scaled = emd(SpatialMap(5, c * p.mass), SpatialMap(5, c * q.mass)).distance
                assert_allclose(scaled, c * base, rtol=1e-9, atol=1e-12 * c)

    def test_marginal_feasibility(self, rng):
        for _ in range(15):
            p, q = random_map_pair(rng, 5)
            res = emd(p, q)
            assert_allclose(res.plan.flows.sum(axis=1), res.plan.src_mass,
                            rtol=1e-9, atol=1e-12)
            assert_allclose(res.plan.flows.sum(axis=0), res.plan.dst_mass,
                            rtol=1e-9, atol=1e-12)

    def test_distance_is_plan_cost(self, rng):
        p, q = random_map_pair(rng, 5)
        res = emd(p, q)
        cells = [(i, j) for i in range(5) for j in range(5)]
        full_cost = ground_cost(cells, cells)
        assert_allclose((full_cost * res.plan.flows).sum(), res.distance,
                        rtol=1e-9, atol=1e-12)

    def test_unequal_mass_raw_rejected(self):
        with pytest.raises(ValueError, match="rebalance"):
            emd(unit_at(3, 0, 0, 1.0), unit_at(3, 0, 1, 2.0))

    def test_zero_mass_rejected(self):
        zero = SpatialMap(3, np.zeros((3, 3)))
        for mass_mode in ("raw", "normalized"):
            for p, q in ((zero, unit_at(3, 0, 0)), (unit_at(3, 0, 0), zero)):
                with pytest.raises(ValueError, match="^both maps must have positive total mass$"):
                    emd(p, q, mass_mode=mass_mode)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="grid order mismatch"):
            emd(unit_at(3, 0, 0), unit_at(4, 0, 0))

    def test_unknown_mass_mode_rejected(self):
        with pytest.raises(ValueError, match="^unknown mass_mode 'sum'$"):
            emd(unit_at(3, 0, 0), unit_at(3, 0, 1), mass_mode="sum")


class TestRebalance:
    def test_scales_to_target(self):
        p = unit_at(3, 0, 0, 294.0)
        q = unit_at(3, 1, 1, 21.0)
        rp, rq = rebalance(p, q, 21.0)
        assert_allclose(rp.total, 21.0)
        assert_allclose(rq.total, 21.0)
        assert_allclose(rp.mass[0, 0], 294.0 * (21.0 / 294.0))

    def test_noop_when_already_at_target(self, rng):
        p, q = random_map_pair(rng, 4)
        rp, rq = rebalance(p, q, p.total)
        assert np.array_equal(rp.mass, p.mass)

    def test_zeros_stay_zero(self, rng):
        p, q = random_map_pair(rng, 4)
        rp, _ = rebalance(p, q, 5.0)
        assert np.array_equal(rp.mass == 0, p.mass == 0)

    def test_zero_mass_rejected(self):
        zero = SpatialMap(3, np.zeros((3, 3)))
        for p, q in ((zero, unit_at(3, 0, 0)), (unit_at(3, 0, 0), zero)):
            with pytest.raises(ValueError, match="^cannot rebalance a zero-mass map$"):
                rebalance(p, q, 1.0)

    @pytest.mark.parametrize("target", [0.0, -1.0, np.nan, np.inf])
    def test_target_must_be_positive_and_finite(self, target):
        with pytest.raises(ValueError, match="target_total must be positive and finite"):
            rebalance(unit_at(3, 0, 0), unit_at(3, 1, 1), target)

    def test_distances_follow_a_target_far_below_1(self, layout):
        # the solver's tolerances are relative, so rebalancing a cohort's binary
        # and weighted maps and the baseline to 1e-8 scales each distance exactly
        names = [e.name for e in layout.electrodes if e.name not in MI_BASELINE_CHANNELS][:30]
        counts = {name: 1 + i % 4 for i, name in enumerate(names)}
        base = mi_baseline(layout)
        for smap in (binary_map(names[:21], layout), weighted_map(counts, layout)):
            default, small = (emd(*rebalance(smap, base, t)).distance for t in (21.0, 1e-8))
            assert default > 1
            assert small == pytest.approx(default * 1e-8 / 21, rel=1e-9, abs=0)

    def test_scale_then_emd_homogeneity(self, rng):
        p, q = random_map_pair(rng, 4)
        d = emd(p, q).distance
        rp, rq = rebalance(p, q, 100.0)
        c = 100.0 / p.total
        assert_allclose(emd(rp, rq).distance, c * d, rtol=1e-9, atol=1e-12)
