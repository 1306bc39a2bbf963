import math

import numpy as np
import pytest

from normdisc.entropy import (
    EntropyCurve,
    combine_sigma_to_entropy,
    conditional_entropy_curve,
    empirical_covering,
    entropy_curve_trig,
)


class TestCurves:
    def test_complex_curve_continuous_at_knee(self):
        c = entropy_curve_trig(size=7, n=2)
        knee = c.knee
        assert knee == 14
        assert c.bound(knee) == pytest.approx(c.bound(knee + 1e-9), rel=1e-6)
        assert c.bound(knee) == pytest.approx(c.constant * c.log_factor / 2)

    def test_real_curve_jumps_at_knee(self):
        c = conditional_entropy_curve(8, big_b=3.0)
        assert c.knee == 8
        left = c.bound(8.0)
        right = c.bound(8.0 + 1e-12)
        assert left == pytest.approx(3.0)
        assert right == pytest.approx(1.5, rel=1e-6)

    def test_trig_log_factor(self):
        assert entropy_curve_trig(15, 3).bound(1) == pytest.approx(3**1.5 * 15)

    def test_monotone_decreasing(self):
        c = entropy_curve_trig(7, 2, c4=1.0)
        ks = np.arange(1, 60)
        vals = [c.bound(k) for k in ks]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_log2_bound_matches_and_survives_deep_tail(self):
        c = entropy_curve_trig(7, 2)
        for k in (1, 5, 14, 40):
            assert c.log2_bound(k) == pytest.approx(math.log2(c.bound(k)))
        # far past the knee the plain bound underflows but the log stays finite
        assert c.log2_bound(2.0**16) == pytest.approx(math.log2(2**1.5) - 2.0**16 / 14)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            EntropyCurve(0, 1, 1)
        with pytest.raises(ValueError):
            entropy_curve_trig(7, 2).bound(0.5)


class TestSigmaTransfer:
    def test_hand_computed_values(self):
        # k <= N branch: ln(2*4/2)/2 = ln(4)/2
        assert combine_sigma_to_entropy(1.0, 4, 2) == pytest.approx(math.log(4) / 2)
        # k >= N, complex: 4^-1 * 2^(-8/8)
        assert combine_sigma_to_entropy(1.0, 4, 8, field="complex") == pytest.approx(0.125)
        # k >= N, real: 4^-1 * 2^(-8/4) = 0.25 * 0.25
        assert combine_sigma_to_entropy(1.0, 4, 8, field="real") == pytest.approx(0.0625)

    def test_rate_power(self):
        v1 = combine_sigma_to_entropy(1.0, 16, 4)
        v2 = combine_sigma_to_entropy(2.0, 16, 4)
        assert v2 == pytest.approx(v1**2)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            combine_sigma_to_entropy(0.0, 4, 2)


class TestEmpiricalCovering:
    def test_line_packing(self):
        # tables are constants 0, 1, 2, ..., 9: sup distance = index gap
        vals = np.arange(10, dtype=float).reshape(-1, 1)
        assert empirical_covering(vals, 0.5) == list(range(10))
        assert empirical_covering(vals, 1.0) == [0, 2, 4, 6, 8]
        assert empirical_covering(vals, 2.5) == [0, 3, 6, 9]

    def test_duplicates_collapse(self):
        vals = np.zeros((5, 3))
        assert empirical_covering(vals, 0.1) == [0]

    def test_packing_lower_bounds_curve(self, trig7, rng):
        # pack random unit-coefficient-mass elements; the packing count must
        # stay under the trivial volume cap and be nontrivial at small eps
        n = 200
        coeffs = rng.dirichlet(np.ones(7), size=n) * rng.choice([-1, 1], size=(n, 7))
        tables = coeffs @ trig7.evaluate(trig7.quadrature.nodes).T
        few = empirical_covering(tables, 1.0)
        many = empirical_covering(tables, 0.05)
        assert 1 <= len(few) < len(many) <= n

    def test_input_validation(self):
        with pytest.raises(ValueError):
            empirical_covering(np.zeros(3), 0.5)
        with pytest.raises(ValueError):
            empirical_covering(np.zeros((2, 2)), 0.0)
