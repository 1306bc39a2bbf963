import math
import tracemalloc

import numpy as np
import pytest
from oracles import random_trig_poly

from normdisc.l1disc import (
    DEEP_HOLE_MESH,
    ChainingParams,
    FalsifierEffort,
    _deep_holes,
    _deterministic_candidates,
    _nearest_distances,
    _optimize_ratio,
    _ratio_gradient,
    _ratio_values,
    certify_l1,
    chaining_budget,
    discrepancy,
    min_m_chaining,
    nikolskii_check,
    random_l1_pointset,
)
from normdisc.spaces import (
    FrequencySet,
    PointSet,
    Quadrature,
    TrigPolynomial,
    build_box,
    build_hyperbolic_cross,
    freqset,
    grid_P,
    poly_norm,
    torus_grid,
)


class TestDiscrepancy:
    def test_mean_square_on_exact_grid_vanishes(self, rng):
        q = build_box([2])
        for _ in range(5):
            f = random_trig_poly(q, rng)
            assert abs(discrepancy(f, grid_P([2]), 2)) < 1e-10

    def test_mean_abs_on_grid_known_value(self):
        # f = 1 + e^{ix} on the 3-point grid: mean 4/3, true norm 4/pi
        q = build_box([1])
        f = TrigPolynomial(q, np.array([0, 1.0, 1.0], dtype=complex))
        quad = Quadrature.tensor_torus([1], oversample=2000)
        d = discrepancy(f, grid_P([1]), 1, quad)
        assert d == pytest.approx(4.0 / 3.0 - 4.0 / math.pi, abs=1e-5)

    def test_weighted_points(self):
        q = freqset([(0,)])
        f = TrigPolynomial(q, [2.0 + 0j])
        ps = PointSet(np.array([[0.0], [1.0]]), np.array([0.75, 0.25]))
        # constant polynomial: empirical mean 2, norm 2, discrepancy 0
        assert discrepancy(f, ps, 1) == pytest.approx(0.0, abs=1e-12)


class TestChainingBudget:
    def test_eta_window_enforced(self):
        with pytest.raises(ValueError):
            ChainingParams(size=7, n=2, eta=0.3)
        with pytest.raises(ValueError):
            ChainingParams(size=7, n=2, eta=0.0)

    def test_budget_decreasing_in_m(self):
        p = ChainingParams(size=7, n=2, eta=1 / 8)
        logs = [chaining_budget(p, m).log_total for m in (10**4, 10**6, 10**8)]
        assert logs[0] > logs[1] > logs[2]

    def test_min_m_is_boundary(self):
        p = ChainingParams(size=7, n=2, eta=1 / 8)
        m = min_m_chaining(p)
        assert chaining_budget(p, m).log_total < 0.0
        assert chaining_budget(p, m - 1).log_total >= 0.0

    def test_min_m_frozen_regression(self):
        # anchors the whole constant stack; the boundary test above is the
        # actual correctness property
        assert min_m_chaining(ChainingParams(size=7, n=2, eta=1 / 8)) == 2468476

    def test_scaling_exponents(self):
        # dominant level analysis: min_m ~ |Q| n^3.5 d^2 / eta^2
        ns = range(2, 7)
        ratios = []
        for n in ns:
            size = len(build_hyperbolic_cross(n, 1))
            ratios.append(min_m_chaining(ChainingParams(size=size, n=n, eta=1 / 8)) / size)
        slope = np.polyfit(np.log(list(ns)), np.log(ratios), 1)[0]
        assert slope == pytest.approx(3.5, abs=0.1)
        m8 = min_m_chaining(ChainingParams(size=15, n=3, eta=1 / 8))
        m16 = min_m_chaining(ChainingParams(size=15, n=3, eta=1 / 16))
        assert m16 / m8 == pytest.approx(4.0, rel=0.01)
        d2 = min_m_chaining(ChainingParams(size=15, n=3, dim=2, eta=1 / 8))
        assert d2 / m8 == pytest.approx(4.0, rel=0.01)

    def test_level_count_invariant(self):
        for n in range(2, 7):
            for eta in (1 / 4, 1 / 8, 1 / 16):
                size = len(build_hyperbolic_cross(n, 1))
                b = chaining_budget(ChainingParams(size=size, n=n, eta=eta), 100)
                assert 2.0**b.J <= b.two_J_bound

    def test_theorem_window_flag(self):
        # at eta = 1/8 the level count only fits under 2 n d for larger n
        small = chaining_budget(ChainingParams(size=7, n=2, eta=1 / 8), 10)
        large_size = len(build_hyperbolic_cross(6, 1))
        large = chaining_budget(ChainingParams(size=large_size, n=6, eta=1 / 8), 10)
        assert not small.in_theorem_window
        assert large.in_theorem_window

    def test_first_term_formula(self):
        p = ChainingParams(size=7, n=2, eta=1 / 8)
        b = chaining_budget(p, 1000)
        eta_level = (1 / 8) / (4 * 2 * 1)
        assert b.eta_level == pytest.approx(eta_level)
        assert b.first_log == pytest.approx(math.log(8.0) - 1000 * eta_level**2 / (8.0 * 7))

    def test_log_space_survives_tiny_m(self):
        b = chaining_budget(ChainingParams(size=31, n=4, eta=1 / 8), 1)
        assert math.isfinite(b.log_total)
        assert b.total > 1e100

    def test_total_overflow_reported_as_inf(self):
        b = chaining_budget(ChainingParams(size=2000, n=6, eta=1 / 8), 1)
        assert b.total == math.inf

    def test_conditional_curve(self):
        p = ChainingParams(size=31, n=1, curve="conditional", big_b=2.0, eta=0.2)
        m = min_m_chaining(p)
        b = chaining_budget(p, m)
        assert b.eta_level == pytest.approx(0.2 / (4 * b.J))
        assert b.in_theorem_window
        assert chaining_budget(p, m - 1).log_total >= 0.0


class TestFalsifier:
    def test_single_point_annihilated(self, cross2):
        ps = PointSet(np.array([[1.234]]))
        cert = certify_l1(ps, cross2, effort=FalsifierEffort.quick(), seed=0)
        assert cert.r_min == pytest.approx(0.0, abs=1e-12)
        assert not cert.passed

    def test_ratio_window_straddles_one(self, cross2):
        # single exponentials have ratio exactly one, so the window must
        # contain it
        ps = random_l1_pointset(1, 300, seed=4)
        cert = certify_l1(ps, cross2, effort=FalsifierEffort.quick(), seed=0)
        assert cert.r_min <= 1.0 + 1e-12 <= cert.r_max + 2e-12

    def test_healthy_random_sets_pass(self, cross2):
        for seed in range(3):
            ps = random_l1_pointset(1, 1120, seed=seed)
            cert = certify_l1(ps, cross2, effort=FalsifierEffort.quick(), seed=seed)
            assert cert.passed, (seed, cert.r_min, cert.r_max)
            assert 0.9 <= cert.r_min <= cert.r_max <= 1.1

    def test_reported_extremes_recomputable(self, cross2):
        eff = FalsifierEffort.quick()
        ps = grid_P([3])
        cert = certify_l1(ps, cross2, effort=eff, seed=0)
        quad = Quadrature.tensor_torus(cross2.max_abs, oversample=eff.oversample)
        for coeffs, want in [(cert.argmin_coeffs, cert.r_min), (cert.argmax_coeffs, cert.r_max)]:
            f = TrigPolynomial(cross2, coeffs)
            emp = float(ps.effective_weights() @ np.abs(f.evaluate(ps.points)))
            assert emp / poly_norm(f, 1, quad) == pytest.approx(want, abs=1e-9)

    def test_reported_extremes_own_their_rows(self, cross2):
        # a row view of the candidate matrix would keep all of it alive with the certificate
        cert = certify_l1(grid_P([3]), cross2, effort=FalsifierEffort.quick(), seed=0)
        assert cert.argmin_coeffs.base is None
        assert cert.argmax_coeffs.base is None

    def test_deterministic_in_seed(self, cross2):
        ps = random_l1_pointset(1, 200, seed=11)
        eff = FalsifierEffort.quick()
        a = certify_l1(ps, cross2, effort=eff, seed=5)
        b = certify_l1(ps, cross2, effort=eff, seed=5)
        assert a.r_min == b.r_min and a.r_max == b.r_max

    def test_subsampling_final_ratios_full(self, cross2):
        # optimizer subsamples but reported ratios come from all points
        eff = FalsifierEffort(restarts=10, iters=50, subsample_cap=32, oversample=8)
        ps = random_l1_pointset(1, 500, seed=2)
        cert = certify_l1(ps, cross2, effort=eff, seed=0)
        assert cert.meta["subsampled"]
        quad = Quadrature.tensor_torus(cross2.max_abs, oversample=8)
        f = TrigPolynomial(cross2, cert.argmin_coeffs)
        emp = float(ps.effective_weights() @ np.abs(f.evaluate(ps.points)))
        assert emp / poly_norm(f, 1, quad) == pytest.approx(cert.r_min, abs=1e-9)

    @pytest.mark.parametrize(
        "points, space, effort",
        [
            (np.zeros((0, 1)), (2, 1), None),  # no points
            (np.zeros((5, 2)), (2, 1), None),  # points of another dimension
            (np.zeros((5, 1)), (2, 2), None),
            (np.zeros((5, 1)), (2, 1), {"subsample_cap": 0}),
            (np.zeros((5, 1)), (2, 1), {"iters": -1}),
            (np.zeros((5, 1)), (2, 1), {"restarts": -1}),
            (np.zeros((5, 1)), (2, 1), {"translate_cap": -3}),
            (np.zeros((5, 1)), (2, 1), {"hole_count": -2}),  # would score all but 2 of the deep-hole mesh
        ],
    )
    def test_bad_input_is_refused_before_any_table(self, monkeypatch, points, space, effort):
        Q = build_hyperbolic_cross(*space)

        def no_table(*args, **kwargs):
            raise AssertionError("a character table was built")

        monkeypatch.setattr(FrequencySet, "characters", no_table)
        with pytest.raises(ValueError):
            certify_l1(PointSet(points), Q, effort=None if effort is None else FalsifierEffort(**effort))

    def test_search_is_recorded(self, cross2):
        eff = FalsifierEffort(restarts=10, iters=7, subsample_cap=32, oversample=8)
        cert = certify_l1(random_l1_pointset(1, 500, seed=2), cross2, effort=eff, seed=0)
        for side in ("min", "max"):
            rec = cert.meta["search"][side]
            assert rec["iterations"] == 7
            assert rec["rows"] == 10 and rec["deterministic_starts"] == 5
            assert rec["subsample"] == 32
            assert 0 < rec["accepted_steps"] <= rec["iterations"] * rec["rows"]
        # 1-d: every mesh node's nearest point is one of its two neighbours on the axis
        assert cert.meta["holes"] == {"mesh": DEEP_HOLE_MESH, "distances": 2 * DEEP_HOLE_MESH}

    @pytest.mark.parametrize(
        "space, m, effort, bound",
        [
            # all candidates against all 5,400 points at once would take 51 MB
            ((3, 1), 5400, None, 25e6),
            # the deterministic candidates at once on a 21,952-node 3-d rule, to pick the starts, would take 115 MB
            ((2, 3), 152, {"restarts": 2, "iters": 0, "oversample": 4}, 60e6),
        ],
    )
    def test_scoring_memory_is_bounded(self, space, m, effort, bound):
        Q = build_hyperbolic_cross(*space)
        ps = random_l1_pointset(Q.dim, m, seed=0)
        tracemalloc.start()
        try:
            certify_l1(ps, Q, effort=None if effort is None else FalsifierEffort(**effort), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, peak

    def test_strength_on_a_2d_cross(self):
        # cross:3:2, m = 98: a descent along one coordinate at a time found only [0.658, 1.452] here
        Q = build_hyperbolic_cross(3, 2)
        cert = certify_l1(random_l1_pointset(2, 98, seed=0), Q, effort=FalsifierEffort.quick(), seed=0)
        assert cert.r_min < 0.5 and cert.r_max > 1.5, (cert.r_min, cert.r_max)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_deterministic_rows_are_kernel_translates(self, dim):
        # rows after the single exponentials: exp(-i<k, y>) for sampling points, then deep holes
        Q = build_hyperbolic_cross(2, dim)
        ps = random_l1_pointset(dim, 30, seed=3)
        eff = FalsifierEffort(translate_cap=20, hole_count=5)
        rows = _deterministic_candidates(Q, ps, Q.characters(ps.points), eff)
        centers = np.concatenate([ps.points[:20], _deep_holes(ps.points, dim, 5)])
        direct = np.exp(-1j * (centers @ Q.array.T))
        assert np.abs(rows[len(Q) : len(Q) + 25] - direct).max() < 1e-14

    def test_deep_holes_far_from_points(self):
        pts = np.array([[0.1], [0.2], [6.0]])
        holes = _deep_holes(pts, 1, 3)
        for h in holes[:, 0]:
            d = np.abs(h - pts[:, 0])
            d = np.minimum(d, 2 * math.pi - d)
            assert d.min() > 1.0

    def test_deep_holes_2d_are_top_scores(self):
        # score of a mesh point: periodic l-infinity distance to the nearest input point
        pts = random_l1_pointset(2, 37, seed=5).points
        count = 6
        holes = _deep_holes(pts, 2, count)
        axis = 2 * math.pi * np.arange(64) / 64  # 4096 ** (1/2) points per axis
        mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)

        def score(x):
            d = np.abs(x[:, None, :] - pts[None, :, :])
            return np.minimum(d, 2 * math.pi - d).max(axis=2).min(axis=1)

        assert holes.shape == (count, 2)
        assert len({tuple(h) for h in holes}) == count
        assert all(np.isin(holes[:, j], axis).all() for j in range(2))
        top = np.sort(score(mesh))[::-1][:count]
        assert np.array_equal(np.sort(score(holes))[::-1], top)

    @pytest.mark.parametrize("kind, dim, size", [("random", d, m) for d in (1, 2, 3) for m in (1, 2, 7, 56, 200, 1120, 5400)]
                             + [("grid_P", d, n) for n, d in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3))]
                             + [("mesh", d, None) for d in (1, 2, 3)])
    def test_deep_holes_match_a_kd_tree(self, kind, dim, size):
        # scipy's periodic kd-tree is the reference: the sweep's scores and holes must be the same doubles
        from scipy.spatial import cKDTree

        per_axis = max(8, int(round(DEEP_HOLE_MESH ** (1.0 / dim))))
        mesh = torus_grid([per_axis] * dim)
        if kind == "random":
            pts = random_l1_pointset(dim, size, seed=dim).points
        elif kind == "grid_P":
            pts = grid_P(build_hyperbolic_cross(size, dim).max_abs).points
        else:
            pts = mesh  # every node is a point: all scores tie at zero
        score, evaluated = _nearest_distances(pts, mesh)
        expected = cKDTree(pts, boxsize=2 * math.pi).query(mesh, p=np.inf)[0]
        assert np.array_equal(score, expected)
        count = FalsifierEffort().hole_count
        record = {}
        holes = _deep_holes(pts, dim, count, record)
        assert np.array_equal(holes, mesh[np.argsort(expected)[::-1][:count]])
        assert record == {"mesh": len(mesh), "distances": evaluated}
        assert len(mesh) <= evaluated <= 2 * len(mesh) * len(pts)


def _ascent_tables(Q, m, seed):
    rng = np.random.default_rng(seed)
    ps = random_l1_pointset(Q.dim, m, seed=seed)
    quad = Quadrature.tensor_torus(Q.max_abs, oversample=8)
    C = rng.standard_normal((6, len(Q))) + 1j * rng.standard_normal((6, len(Q)))
    return C, (Q.characters(ps.points), ps.effective_weights(), Q.characters(quad.nodes), quad.weights)


class TestGradientAscent:
    @pytest.mark.parametrize("space", [(2, 1), (2, 2)])
    def test_gradient_matches_central_differences(self, space):
        Q = build_hyperbolic_cross(*space)
        C, (P, w, R, omega) = _ascent_tables(Q, 40, seed=3)
        c = C[:1]
        grad = _ratio_gradient(c, P, w, R, omega, P.conj().T, R.conj().T)[0]
        h = 1e-6
        fd = np.zeros(len(Q), dtype=complex)
        for k in range(len(Q)):
            for unit in (1.0, 1j):
                e = np.zeros_like(c)
                e[0, k] = unit * h
                diff = (_ratio_values(c + e, P, w, R, omega)[0] - _ratio_values(c - e, P, w, R, omega)[0])[0] / (2 * h)
                fd[k] += unit * diff
        assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_no_objective_ever_worsens(self, sign):
        Q = build_hyperbolic_cross(3, 2)
        C, tables = _ascent_tables(Q, 60, seed=4)
        min_l1 = 1.0 / math.sqrt(len(Q))
        # the ascent draws no random numbers, so iters=k is a prefix of iters=k+1
        objs = [_optimize_ratio(C, *tables, k, sign, min_l1)[1] for k in range(12)]
        for before, after in zip(objs, objs[1:]):
            assert (after <= before).all()
        rows, obj, accepted = _optimize_ratio(C, *tables, 11, sign, min_l1)
        assert np.allclose(sign * _ratio_values(rows, *tables)[0], obj, rtol=0, atol=1e-12)
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)
        assert 0 < accepted <= 11 * len(C)
        assert (objs[-1] < objs[0]).all()


class TestNikolskii:
    def test_no_violations_1d(self, cross2):
        out = nikolskii_check(cross2, sample_size=200, seed=0, p_list=(1.0, 2.0))
        for p, rec in out.items():
            assert rec["violations"] == 0
            assert rec["max_ratio"] <= 1.0

    def test_no_violations_2d(self):
        q = build_hyperbolic_cross(2, 2)
        out = nikolskii_check(q, sample_size=50, seed=1, p_list=(1.0,))
        assert out[1.0]["violations"] == 0

    def test_constant_saturates_p2(self):
        # for f = const the sharp p=2 ratio is 1/sqrt(|Q|) of the bound;
        # single exponentials get ratio 1/sqrt(|Q|) too; the bound is loose
        # but positive ratios confirm the measurement is live
        q = build_box([1])
        out = nikolskii_check(q, sample_size=20, seed=3)
        assert out[2.0]["max_ratio"] > 0.3
