import dataclasses
import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import christoffel, no_rule_table, random_trig_poly

from normdisc import spaces
from normdisc.cli import parse_space
from normdisc.dictionaries import scaled_basis_dict
from normdisc.greedy import sup_norm_sparsify
from normdisc.l2disc import frobenius_rga_pointset
from normdisc.spaces import (
    GRAM_BLOCK_ROWS,
    FrequencySet,
    OrthonormalSystem,
    PointSet,
    Quadrature,
    SystemConstants,
    TrigBasis,
    TrigPolynomial,
    build_box,
    build_hyperbolic_cross,
    dirichlet_poly,
    freqset,
    grid_P,
    poly_norm,
    real_trig_system,
    weighted_gram,
)


class TestFrequencySets:
    def test_box_1d(self):
        q = build_box([2])
        assert tuple(q) == ((-2,), (-1,), (0,), (1,), (2,))
        assert len(q) == 5 and q.symmetric

    def test_box_2d_size(self):
        assert len(build_box([2, 3])) == 5 * 7
        assert grid_P([2, 3]).m == 35

    def test_dyadic_blocks(self):
        assert spaces._dyadic_axis(0) == [0]
        assert spaces._dyadic_axis(1) == [-1, 1]
        assert spaces._dyadic_axis(2) == [-3, -2, 2, 3]
        # the shell of the level-1 cross in 2d is the union of the blocks (1, 0) and (0, 1)
        assert set(build_hyperbolic_cross(1, 2)) - set(build_hyperbolic_cross(0, 2)) == {(-1, 0), (1, 0), (0, -1), (0, 1)}

    def test_dyadic_blocks_partition_box(self):
        # blocks with s <= n tile the box [-(2^n - 1), 2^n - 1], and the shells of the 1d crosses are the blocks
        n = 3
        blocks = [spaces._dyadic_axis(s) for s in range(n + 1)]
        assert sum(map(len, blocks)) == len(set().union(*blocks)) == 2 ** (n + 1) - 1
        for s in range(1, n + 1):
            shell = set(build_hyperbolic_cross(s, 1)) - set(build_hyperbolic_cross(s - 1, 1))
            assert shell == {(k,) for k in blocks[s]}

    @pytest.mark.parametrize("n,size", [(0, 1), (1, 3), (2, 7), (3, 15), (4, 31)])
    def test_hyperbolic_cross_1d_sizes(self, n, size):
        assert len(build_hyperbolic_cross(n, 1)) == size

    def test_hyperbolic_cross_2d(self):
        q = build_hyperbolic_cross(1, 2)
        assert set(q) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            freqset([(1,), (1,)])

    @given(st.data())
    def test_array_is_the_sorted_set_of_tuples(self, data):
        # every derived property against its definition on the set of tuples, from shuffled inputs
        d = data.draw(st.integers(1, 3))
        members = set(data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=24)))
        if data.draw(st.booleans()):
            members |= {tuple(-v for v in k) for k in members}
        order = data.draw(st.permutations(sorted(members)))
        q = freqset(order, d)
        assert list(q) == sorted(members) and q.array.shape == (len(members), d)
        assert q == freqset(members, d) == FrequencySet(d, np.array(order[::-1], dtype=np.int64).reshape(-1, d))
        assert q.symmetric == (members == {tuple(-v for v in k) for k in members})
        with pytest.raises(ValueError):
            q.array[...] = 0  # read-only
        assert FrequencySet.from_json(q.to_json()) == q
        if members:
            with pytest.raises(ValueError, match="duplicate"):
                freqset([*order, order[-1]])
        if members and q.symmetric:
            basis = TrigBasis(q)
            assert basis.has_const == ((0,) * d in members)
            leading = [k for k in sorted(members) if next((v for v in k if v), 0) > 0]  # positive leading nonzero coordinate
            assert list(map(tuple, basis.rep_array.tolist())) == leading

    def test_largest_1d_space_builds_in_little_memory(self):
        # cross:17:1, the largest 1-d set under MAX_SPACE_ENTRIES: 262,143 frequencies, 2.1 MB of int64
        tracemalloc.start()
        try:
            Q = parse_space("cross:17:1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(Q) == 2**18 - 1 and peak < 20e6

    def test_json_roundtrip(self):
        q = build_hyperbolic_cross(2, 2)
        assert FrequencySet.from_json(q.to_json()) == q

    @pytest.mark.parametrize(
        "q", [build_hyperbolic_cross(3, 1), build_hyperbolic_cross(2, 2), build_box([1, 2, 1]), freqset([(5, -1), (0, 2)]), build_box([0])]
    )
    def test_differences_index_every_pair(self, q):
        D, position = q.differences()
        direct = {tuple(l - k) for k in q.array for l in q.array}
        assert set(D) == direct and len(D) == len(direct)
        assert position.shape == (len(q) ** 2,)
        pairs = (q.array[None, :, :] - q.array[:, None, :]).reshape(-1, q.dim)
        assert np.array_equal(D.array[position], pairs)  # pair (k, l) -> l - k, row-major

    @pytest.mark.parametrize("q", [build_hyperbolic_cross(3, 1), build_hyperbolic_cross(2, 2), build_box([1, 2, 1])])
    def test_characters_match_direct_exp(self, q, rng):
        pts = rng.uniform(0, 2 * math.pi, size=(9, q.dim))
        table = q.characters(pts)
        assert table.shape == (len(q), 9)
        for i, k in enumerate(q):
            for j, x in enumerate(pts):
                assert abs(table[i, j] - np.exp(1j * sum(kv * xv for kv, xv in zip(k, x)))) < 1e-14


class TestTrigPolynomials:
    def test_eval_single_mode(self):
        f = TrigPolynomial(freqset([(3,)]), [1.0 + 0j])
        x = 0.7
        assert f.evaluate(x) == pytest.approx(np.exp(3j * x))

    def test_parseval(self, rng):
        q = build_box([4])
        f = random_trig_poly(q, rng)
        assert poly_norm(f, 2) == pytest.approx(np.linalg.norm(f.coeffs), abs=1e-10)

    def test_real_sampler_is_real(self, rng):
        q = build_hyperbolic_cross(3, 1)
        f = random_trig_poly(q, rng, real=True)
        vals = f.evaluate(rng.uniform(0, 2 * math.pi, size=(50, 1)))
        assert np.abs(vals.imag).max() < 1e-10

    def test_translate(self, rng):
        q = build_box([3])
        f = random_trig_poly(q, rng)
        y = 1.1
        g = TrigPolynomial(q, f.coeffs * np.exp(-1j * q.array[:, 0] * y))  # f(. - y)
        x = np.array([[0.4], [2.2]])
        assert np.allclose(g.evaluate(x), f.evaluate(x - y))

    def test_dirichlet_peak(self):
        q = build_box([5])
        assert dirichlet_poly(q).evaluate(0.0) == pytest.approx(len(q))


class TestGridIdentities:
    @pytest.mark.parametrize("n_vec", [[2], [1, 1]])
    def test_mean_square_exact_on_grid(self, n_vec, rng):
        q = build_box(n_vec)
        pts = grid_P(n_vec).points
        for _ in range(5):
            f = random_trig_poly(q, rng)
            vals = f.evaluate(pts)
            assert (np.abs(vals) ** 2).mean() == pytest.approx(np.linalg.norm(f.coeffs) ** 2, abs=1e-10)

    def test_grid_size(self):
        assert grid_P([3]).m == 7
        assert grid_P([1, 2]).m == 15

    def test_mean_abs_not_exact_on_grid(self):
        # the analogous q=1 identity fails: 1 + e^{ix} on the 3-point grid
        q = build_box([1])
        f = TrigPolynomial(q, np.array([0, 1.0, 1.0], dtype=complex))
        pts = grid_P([1]).points
        grid_mean = np.abs(f.evaluate(pts)).mean()
        true_l1 = poly_norm(f, 1, Quadrature.tensor_torus([1], oversample=400))
        assert abs(grid_mean - true_l1) > 0.05


class TestNorms:
    def test_constant_all_p(self):
        c = TrigPolynomial(freqset([(0,)]), [3.0 + 0j])
        for p in (1, 1.5, 2, 4):
            assert poly_norm(c, p) == pytest.approx(3.0)
        assert poly_norm(c, math.inf) == pytest.approx(3.0)

    def test_norm_monotone_in_p(self, rng):
        f = random_trig_poly(build_box([3]), rng)
        quad = Quadrature.tensor_torus([3], oversample=16)
        n1 = poly_norm(f, 1, quad)
        n2 = poly_norm(f, 2, quad)
        ninf = poly_norm(f, math.inf, quad)
        assert n1 <= n2 + 1e-12 <= ninf + 1e-9

    def test_sup_norm_dirichlet(self):
        q = build_box([4])
        assert poly_norm(dirichlet_poly(q), math.inf) == pytest.approx(len(q), rel=1e-8)

    def test_sup_norm_refinement_beats_grid(self):
        # peak deliberately off the coarse grid
        q = build_box([6])
        f = TrigPolynomial(q, np.exp(-1j * q.array[:, 0] * 0.123456))  # D_Q(. - 0.123456)
        coarse = Quadrature.tensor_torus([6], oversample=1)
        refined = poly_norm(f, math.inf, coarse)
        assert refined == pytest.approx(13.0, rel=1e-6)

    # (n, d) of cross:n:d and oversample; cross:2:3 at 4 x 8 would need an 11M-node check grid
    REFINED = [((4, 1), 1), ((4, 1), 4), ((4, 1), 8), ((3, 2), 1), ((3, 2), 4), ((3, 2), 8), ((2, 3), 1), ((2, 3), 4), ((1, 3), 8)]

    @pytest.mark.parametrize("spec, oversample", REFINED, ids=[f"cross:{n}:{d}-os{o}" for (n, d), o in REFINED])
    def test_newton_refinement_bounds(self, spec, oversample):
        q = build_hyperbolic_cross(*spec)
        quad = Quadrature.tensor_torus(q.max_abs, oversample=oversample)
        fine = Quadrature.tensor_torus(q.max_abs, oversample=4 * oversample)
        rng = np.random.default_rng([*spec, oversample])
        for i in range(6):
            f = random_trig_poly(q, rng, real=i % 2 == 0)
            sup = poly_norm(f, math.inf, quad)
            assert sup >= np.abs(f.values_on(quad)).max()
            assert sup <= np.abs(f.coeffs).sum() * (1 + 1e-12)
            # without oversampling a peak can lie where none of the top grid nodes is near, and a local
            # search from them misses it; from oversample 4 on the refined value is the true peak
            if oversample > 1:
                assert sup >= np.abs(f.values_on(fine)).max() * (1 - 1e-9)

    def test_zero_polynomial_has_zero_sup(self):
        q = build_hyperbolic_cross(2, 2)
        assert poly_norm(TrigPolynomial(q, np.zeros(len(q))), math.inf) == 0.0

    @pytest.mark.parametrize("spec", [(3, 1), (2, 2), (2, 3)])
    def test_span_sup_norm_is_the_exponential_form(self, spec, rng):
        system = real_trig_system(build_hyperbolic_cross(*spec))
        for _ in range(4):
            c = rng.standard_normal(system.size)
            f = TrigPolynomial(system.freqs, system.basis.exp_coeffs(c[:, None])[:, 0])
            assert system.span_norm(c, math.inf) == pytest.approx(poly_norm(f, math.inf, system.quadrature), rel=1e-12)

    def test_sup_norms_leave_scipy_optimize_unloaded(self):
        code = (
            "import sys, math, numpy as np; from normdisc import spaces\n"
            "q = spaces.build_hyperbolic_cross(2, 2); rng = np.random.default_rng(0)\n"
            "c = rng.standard_normal(len(q)) + 1j * rng.standard_normal(len(q))\n"
            "spaces.poly_norm(spaces.TrigPolynomial(q, c), math.inf)\n"
            "spaces.real_trig_system(q).span_norm(rng.standard_normal(len(q)), math.inf)\n"
            "print('scipy.optimize' in sys.modules)"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    @given(st.floats(min_value=0.5, max_value=4.0))
    def test_scaling(self, scale):
        f = TrigPolynomial(freqset([(0,), (1,), (-1,)]), np.array([1, 0.5, 0.5], dtype=complex))
        base = poly_norm(f, 2)
        assert poly_norm(TrigPolynomial(f.support, scale * f.coeffs), 2) == pytest.approx(scale * base, rel=1e-9)


class TestValuesOnQuadrature:
    SUPPORTS = [
        build_box([4]),
        build_box([2, 3]),
        build_box([1, 2, 1]),
        build_hyperbolic_cross(3, 1),
        build_hyperbolic_cross(3, 2),
        build_hyperbolic_cross(2, 3),
        freqset([(0,), (3,), (-1,), (7,)]),
        freqset([(1, 2), (0, -3), (5, 1)]),
        freqset([(2, 0, -1), (0, 0, 0), (1, 1, 3)]),
    ]

    @pytest.mark.parametrize("q", SUPPORTS, ids=lambda q: f"{q.dim}d-{len(q)}")
    @pytest.mark.parametrize("oversample", [1, 4])
    def test_fft_matches_direct_sums(self, q, oversample, rng):
        f = random_trig_poly(q, rng)
        quad = Quadrature.tensor_torus(q.max_abs, oversample=oversample)
        direct = f.evaluate(quad.nodes)
        assert np.abs(f.values_on(quad) - direct).max() <= 1e-12 * np.abs(direct).max()

    @pytest.mark.parametrize("n_vec,rule", [([4], [1]), ([3, 2], [1, 1]), ([2, 1, 2], [0, 1, 1])])
    def test_aliasing_rule_stays_exact(self, n_vec, rule, rng):
        # the rule is too coarse to tell some frequencies of the box apart
        f = random_trig_poly(build_box(n_vec), rng)
        quad = Quadrature.tensor_torus(rule, oversample=1)
        direct = f.evaluate(quad.nodes)
        assert np.abs(f.values_on(quad) - direct).max() <= 1e-12 * np.abs(direct).max()

    def test_rule_of_another_dimension_is_rejected(self, rng):
        f = random_trig_poly(build_box([2, 1]), rng)
        with pytest.raises(ValueError):
            f.values_on(Quadrature.tensor_torus([2]))


class TestQuadrature:
    @pytest.mark.parametrize("sizes", [[7], [1], [36, 36], [3, 1], [12, 20, 8], [4, 1, 5]])
    def test_torus_grid_is_the_product_order_grid(self, sizes):
        axes = [2 * math.pi * np.arange(s) / s for s in sizes]
        grid = Quadrature(sizes).nodes
        assert grid.dtype == np.float64
        assert np.array_equal(grid, np.array(list(itertools.product(*axes))))

    def test_torus_grid_peaks_at_its_nodes(self):
        tracemalloc.start()
        try:
            grid = Quadrature([300, 40, 20]).nodes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * grid.nbytes  # no meshgrid copies beside the nodes

    def test_weights_sum_to_one(self):
        q = Quadrature.tensor_torus([2, 3])
        assert q.weights.sum() == pytest.approx(1.0)
        assert q.size == (4 * 5) * (4 * 7)

    def test_exact_for_products(self, rng):
        # oversample 4 integrates u_i * u_j exactly
        sys = real_trig_system(build_box([2]))
        g = weighted_gram(sys.evaluate(sys.quadrature.nodes), sys.quadrature.weights)
        assert np.abs(g - np.eye(sys.size)).max() < 1e-12

    def test_gram_over_row_blocks(self, trig7, rng):
        # more rows than one block, with unequal weights
        u = trig7.evaluate(rng.uniform(0, 2 * math.pi, size=(GRAM_BLOCK_ROWS + 1000, 1)))
        weights = rng.dirichlet(np.ones(u.shape[0]))
        assert np.abs(weighted_gram(u, weights) - (u * weights[:, None]).T @ u).max() < 1e-12

    def test_node_count_is_capped(self, monkeypatch):
        # the cap acts on the description, before any node exists
        monkeypatch.setattr(spaces, "MAX_RULE_NODES", 100)
        assert Quadrature.tensor_torus([3, 3], oversample=1).size == 49
        for build in (lambda: Quadrature.tensor_torus([3, 3], oversample=2), lambda: Quadrature([14, 14])):
            with pytest.raises(ValueError, match="tensor rule of 196 nodes exceeds MAX_RULE_NODES = 100"):
                build()

    @pytest.mark.parametrize("sizes", [[0], [3, 0], [4, -2, 5]])
    def test_sizes_below_one_are_refused(self, sizes):
        with pytest.raises(ValueError, match="positive sizes"):
            Quadrature(sizes)

    @pytest.mark.parametrize("max_freqs", [[-3], [-1, 2]])
    def test_negative_max_frequency_is_refused(self, max_freqs):
        # oversample * (2 f + 1) is below 1 for every f < 0
        with pytest.raises(ValueError, match="positive sizes"):
            Quadrature.tensor_torus(max_freqs)

    def test_a_rule_holds_no_array_until_one_is_read(self):
        quad = Quadrature.tensor_torus([20, 20, 20])
        assert [f.name for f in dataclasses.fields(Quadrature)] == ["sizes", "meta"]
        assert quad.sizes == (164, 164, 164) and quad.size == 164**3 and quad.dim == 3 and quad.meta == {"oversample": 4}
        assert "nodes" not in vars(quad) and "weights" not in vars(quad)
        assert np.array_equal(quad.axis_spacing(), np.full(3, 2 * math.pi / 164))


def numeric_verdict(Q: FrequencySet, quad: Quadrature) -> bool:
    """Whether the quadrature Gram of the real trig basis of a symmetric Q is the identity to 1e-8."""
    return bool(np.abs(weighted_gram(TrigBasis(Q).evaluate(quad.nodes), quad.weights) - np.eye(len(Q))).max() <= 1e-8)


def construction_verdict(Q: FrequencySet, quad: Quadrature) -> bool:
    """Whether the trig system of Q builds on ``quad`` (on a tensor rule: the difference-set check)."""
    try:
        OrthonormalSystem(TrigBasis(Q), quad)
    except ValueError as exc:
        assert "Gram" in str(exc)
        return False
    return True


@st.composite
def symmetric_set_and_sizes(draw):
    dim = draw(st.integers(1, 3))
    vecs = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim), min_size=1, max_size=8))
    Q = freqset(set(vecs) | {tuple(-v for v in k) for k in vecs}, dim)
    return Q, draw(st.lists(st.integers(1, 9), min_size=dim, max_size=dim))


class TestDifferenceSetExactness:
    CASES = [
        (freqset([(0, 0), (1, 0), (-1, 0), (0, 3), (0, -3)]), [3, 4], True),  # s_2 = 4 <= 2 * 3
        (freqset([(0, 0), (1, 0), (-1, 0), (0, 3), (0, -3)]), [3, 6], False),  # 3 = -3 mod 6
        (freqset([(0, 0), (1, 0), (-1, 0), (0, 3), (0, -3)]), [2, 7], False),  # 1 = -1 mod 2
        (build_hyperbolic_cross(2, 2), [7, 7], True),
        (build_hyperbolic_cross(2, 2), [6, 7], False),
        (freqset([(0,), (4,), (-4,)]), [3], True),  # 0, 4, -4 = 0, 1, 2 mod 3
        (freqset([(0,), (4,), (-4,)]), [4], False),
        (build_box([2]), [5], True),
        (build_box([2]), [4], False),
        (build_hyperbolic_cross(2, 3), [7, 7, 7], True),
        (build_hyperbolic_cross(2, 3), [7, 4, 7], False),
    ]

    @pytest.mark.parametrize("Q,sizes,exact", CASES, ids=lambda v: str(v) if isinstance(v, (list, bool)) else f"{v.dim}d-{len(v)}")
    def test_verdict_on_chosen_rules(self, Q, sizes, exact):
        quad = Quadrature(sizes)
        assert construction_verdict(Q, quad) is exact
        assert numeric_verdict(Q, quad) is exact

    @given(symmetric_set_and_sizes())
    def test_verdict_equals_the_numeric_gram_check(self, case):
        Q, sizes = case
        quad = Quadrature(sizes)
        assert construction_verdict(Q, quad) == numeric_verdict(Q, quad)

    def test_rule_that_does_not_match_is_rejected(self, rng):
        # every entry point of a tensor rule refuses a rule of another dimension
        Q = build_hyperbolic_cross(2, 2)
        entry_points = [
            lambda quad: OrthonormalSystem(TrigBasis(Q), quad),  # resolves_products
            random_trig_poly(Q, rng).values_on,
        ]
        for entry in entry_points:
            with pytest.raises(ValueError, match="tensor rule of sizes .* does not match"):
                entry(Quadrature([7, 7, 1]))


class TestPointSet:
    def test_wraps_mod_2pi(self):
        ps = PointSet(np.array([[7.0], [-1.0]]))
        assert (ps.points >= 0).all() and (ps.points < 2 * math.pi).all()

    def test_tiny_negative_maps_to_zero(self):
        # np.mod(-1e-18, 2*pi) rounds up to exactly 2*pi
        ps = PointSet(np.array([[-1e-18, 1.0], [-1e-300, -1.0]]))
        assert (ps.points < 2 * math.pi).all()
        assert ps.points[0, 0] == 0.0 and ps.points[1, 0] == 0.0
        assert ps.points[0, 1] == 1.0 and ps.points[1, 1] == np.mod(-1.0, 2 * math.pi)

    def test_default_weights(self):
        ps = PointSet(np.zeros((4, 1)))
        assert np.allclose(ps.effective_weights(), 0.25)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((2, 1)), np.array([0.5, -0.5]))

    def test_json_roundtrip(self):
        ps = PointSet(np.array([[0.1, 0.2], [3.0, 4.0]]), np.array([0.3, 0.7]))
        back = PointSet.from_json(ps.to_json())
        assert np.allclose(back.points, ps.points)
        assert np.allclose(back.weights, ps.weights)


class TestOrthonormalSystems:
    def test_trig_system_basic(self, trig7, cross2):
        assert trig7.size == len(cross2) == 7
        w = christoffel(trig7, np.array([[0.0], [0.7], [2.9]]))
        assert np.abs(w - 7).max() < 1e-10

    def test_kernel_matches_dirichlet(self, trig7, cross2):
        x = np.array([[0.8]])
        y = np.array([[0.15]])
        k = (trig7.evaluate(x) @ trig7.evaluate(y).T)[0, 0]
        d = dirichlet_poly(cross2).evaluate(np.array([0.65])).real
        assert k == pytest.approx(d, abs=1e-10)

    def test_span_norm_matches_poly_norm(self, trig7, cross2, rng):
        # a real polynomial expressed in both bases has equal norms
        f = random_trig_poly(cross2, rng, real=True)
        vals = f.evaluate(trig7.quadrature.nodes).real
        coeffs = (trig7.evaluate(trig7.quadrature.nodes) * trig7.quadrature.weights[:, None]).T @ vals
        for p in (1, 2, 4):
            assert trig7.span_norm(coeffs, p) == pytest.approx(poly_norm(f, p, trig7.quadrature), abs=1e-9)

    def test_grid_system(self, cross2):
        # the trig system on a uniform grid of a chosen size, not the one tensor_torus picks
        sys = OrthonormalSystem(TrigBasis(cross2), Quadrature([16]))
        assert sys.size == 7
        assert np.abs(christoffel(sys, sys.quadrature.nodes) - 7).max() < 1e-12

    def test_grid_system_too_coarse_rejected(self, cross2):
        with pytest.raises(ValueError, match="Gram"):
            OrthonormalSystem(TrigBasis(cross2), Quadrature([6]))  # 3 = -3 mod 6

    def test_grid_system_needs_only_distinct_residues(self):
        # 5 <= 2 * max|k| = 6, yet 0, 1, 4, 3, 2 = k mod 5 are distinct
        sys = OrthonormalSystem(TrigBasis(freqset([(0,), (1,), (-1,), (3,), (-3,)])), Quadrature([5]))
        assert np.abs(weighted_gram(sys.evaluate(sys.quadrature.nodes), sys.quadrature.weights) - np.eye(5)).max() <= 1e-12

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            real_trig_system(freqset([(0,), (1,)]))

    def test_construction_checks_gram_and_christoffel_cap(self, trig7, rng):
        plain = OrthonormalSystem(trig7.basis, trig7.quadrature)
        assert plain.dim == 1
        # the cap t is derived, and w(x) = N t^2 holds at every point (condition D)
        w = christoffel(plain, rng.uniform(0, 2 * math.pi, size=(20, 1)))
        assert np.abs(w - plain.size * plain.constants.t**2).max() < 1e-12

    TABLE_SUPPORTS = [
        (build_hyperbolic_cross(3, 1), 4),
        (build_box([2, 1]), 1),
        (build_box([3, 2]), 2),
        (build_hyperbolic_cross(3, 2), 4),
        (build_box([1, 0, 2]), 1),  # a size-1 axis
        (build_hyperbolic_cross(2, 3), 4),
        (freqset([(1, 0), (-1, 0), (0, 1), (0, -1)]), 1),  # no constant
        (freqset([(1, 2, 0), (-1, -2, 0), (0, 0, 3), (0, 0, -3)]), 2),
    ]

    @pytest.mark.parametrize("q,oversample", TABLE_SUPPORTS, ids=lambda v: f"{v.dim}d-{len(v)}" if isinstance(v, FrequencySet) else str(v))
    def test_tensor_table_matches_direct_evaluation(self, q, oversample):
        # the basis at the nodes through the path of span_norm and ia: exponential coefficients, then one inverse FFT
        sys = real_trig_system(q, oversample=oversample)
        E = sys.basis.exp_coeffs(np.eye(sys.size))
        fft_table = np.stack([TrigPolynomial(q, E[:, i]).values_on(sys.quadrature) for i in range(sys.size)], axis=1)
        assert np.abs(fft_table - sys.basis.evaluate(sys.quadrature.nodes)).max() <= 1e-13

    @pytest.mark.parametrize("sizes", [[6, 7], [7, 6], [4, 4]])
    def test_tensor_rule_too_coarse_fails_the_difference_set_check(self, sizes):
        # max |k_j| = 3 on both axes, and each rule aliases two frequencies
        with pytest.raises(ValueError, match="Gram"):
            OrthonormalSystem(TrigBasis(build_hyperbolic_cross(2, 2)), Quadrature(sizes))

    def test_trig_system_on_its_tensor_rule_skips_the_gram_product(self, monkeypatch):
        calls = []
        monkeypatch.setattr(spaces, "weighted_gram", lambda *a: calls.append(a) or weighted_gram(*a))
        Q = build_hyperbolic_cross(4, 2)
        with no_rule_table(Quadrature.tensor_torus(Q.max_abs).size):  # w = N is an identity of the basis: no table is built
            real_trig_system(Q)
        assert calls == []

    def test_trig_system_builds_in_memory_of_its_nodes(self):
        # the build reads no node: cross:6:2 has 258,064 nodes (6 MB of nodes and weights), cross:4:3 1.9M (61 MB),
        # and a nodes x N table would take 1.6 GB and 5.4 GB
        for n, dim in ((6, 2), (4, 3)):
            tracemalloc.start()
            try:
                real_trig_system(build_hyperbolic_cross(n, dim))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5e6, f"cross:{n}:{dim}"

    def test_constants_declared(self, trig7):
        # a system is its basis and its rule: built directly, it derives the constants and gives the results of real_trig_system
        assert [f.name for f in dataclasses.fields(OrthonormalSystem)] == ["basis", "quadrature"]
        c = trig7.constants
        assert dataclasses.astuple(c) == (pytest.approx(math.sqrt(2) * 1 * 3 / 7), 2.0, 1.0)
        assert real_trig_system(build_box([0])).constants == SystemConstants(k1=0.0, k2=1.0, t=1.0)
        for spec in ("cross:2:1", "cross:3:2", "box:2x3x1"):
            Q = parse_space(spec)
            direct = OrthonormalSystem(TrigBasis(Q), Quadrature.tensor_torus(Q.max_abs, oversample=4))
            ref = real_trig_system(Q)
            assert direct.constants == ref.constants and direct.name == ref.name
            assert frobenius_rga_pointset(direct, 4 * ref.size).selected == frobenius_rga_pointset(ref, 4 * ref.size).selected
            assert np.array_equal(scaled_basis_dict(direct).atoms, scaled_basis_dict(ref).atoms)
            target = np.random.default_rng(7).standard_normal(ref.size)
            assert sup_norm_sparsify(direct, target, steps=8).sup_residual == sup_norm_sparsify(ref, target, steps=8).sup_residual


class TestTrigBasis:
    def test_derived_from_its_frequency_set(self):
        basis = TrigBasis(build_hyperbolic_cross(2, 2))
        # one representative of each pair {k, -k}, the one with a positive leading nonzero coordinate, sorted
        assert list(map(tuple, basis.rep_array.tolist())) == sorted({max(k, tuple(-v for v in k)) for k in basis.freqs if any(k)})
        assert basis.has_const and basis.n_funcs == len(basis.freqs) == 1 + 2 * len(basis.rep_array)
        assert basis.rep_array.shape == (len(basis.rep_array), 2)
        assert TrigBasis(freqset([(1, 0), (-1, 0)])).rep_array.tolist() == [[1, 0]]

    def test_constant_only_basis(self):
        basis = TrigBasis(build_box([0, 0]))
        assert basis.rep_array.shape == (0, 2)
        assert np.array_equal(basis.evaluate(Quadrature.tensor_torus([1, 2]).nodes), np.ones((12 * 20, 1)))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            TrigBasis(FrequencySet(2, ()))

    @pytest.mark.parametrize(
        "q", [build_hyperbolic_cross(2, 2), build_hyperbolic_cross(3, 1), freqset([(1, 2), (-1, -2), (0, 3), (0, -3)]), build_box([0, 0])]
    )
    def test_exp_coeffs_are_the_real_functions(self, q, rng):
        basis = TrigBasis(q)
        c = rng.standard_normal((basis.n_funcs, 3))
        coeffs = basis.exp_coeffs(c)
        pts = rng.uniform(0, 2 * math.pi, size=(11, q.dim))
        for i in range(3):
            assert np.abs(TrigPolynomial(q, coeffs[:, i]).evaluate(pts) - basis.evaluate(pts) @ c[:, i]).max() < 1e-12


def test_every_public_name_resolves():
    import normdisc

    assert [name for name in normdisc.__all__ if not hasattr(normdisc, name)] == []
    namespace = {}
    exec("from normdisc import *", namespace)
    assert set(normdisc.__all__) <= namespace.keys()
