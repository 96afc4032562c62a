"""Model fitting for the scaling experiments."""

import math

import pytest

from repro.analysis.fitting import (
    fit_linear_basis,
    fit_power_law,
    fit_theorem1_b_sweep,
)


class TestPowerLaw:
    def test_recovers_exact_exponent(self):
        xs = [1, 2, 4, 8, 16]
        ys = [3 * x**2 for x in xs]
        fit = fit_power_law(xs, ys)
        a, k = fit.coefficients
        assert a == pytest.approx(3, rel=1e-6)
        assert k == pytest.approx(2, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_decaying_exponent(self):
        xs = [10, 20, 40, 80]
        ys = [100 / x for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.coefficients[1] == pytest.approx(-1, rel=1e-6)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0, 3])


class TestTheorem1Fit:
    def test_recovers_planted_coefficients(self):
        n, f = 1024, 64
        log2n = math.log2(n) ** 2
        bs = [42, 84, 168, 336, 672]
        ccs = [2.0 * (f / b) * log2n + 0.5 * log2n for b in bs]
        fit = fit_theorem1_b_sweep(bs, ccs, n, f)
        alpha, beta = fit.coefficients
        assert alpha == pytest.approx(2.0, rel=1e-6)
        assert beta == pytest.approx(0.5, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_non_negative_coefficients_enforced(self):
        # Increasing data can't be explained by the decaying f/b term; the
        # projected fit must zero it out rather than go negative.
        n, f = 256, 32
        bs = [42, 84, 168]
        ccs = [10.0, 20.0, 40.0]
        fit = fit_theorem1_b_sweep(bs, ccs, n, f)
        assert all(c >= 0 for c in fit.coefficients)

    def test_fits_real_measured_series_well(self):
        # The series measured in benchmarks/results/theorem1_cc_vs_b.txt.
        bs = [42, 84, 168, 336, 672]
        ccs = [567.7, 370.0, 285.7, 244.0, 232.0]
        fit = fit_theorem1_b_sweep(bs, ccs, n=36, f=10)
        assert fit.r_squared > 0.98

class TestLinearBasis:
    def test_constant_series(self):
        fit = fit_linear_basis([5.0, 5.0, 5.0], [[1.0, 1.0, 1.0]], model="const")
        assert fit.coefficients[0] == pytest.approx(5.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_label_rendering(self):
        fit = fit_linear_basis([1.0, 2.0], [[1.0, 2.0]], model="a*x")
        assert "a*x" in fit.predict_label()
        assert "R^2" in fit.predict_label()
