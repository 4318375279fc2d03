"""Exactness and convention checks for the simplex quadrature rules.

Every rule advertises the highest total polynomial degree it integrates
exactly.  Barycentric monomials have closed-form integrals over a simplex
(the Dirichlet/factorial formula), which gives an independent oracle:

    triangle:     int lam0^a lam1^b lam2^c dA        = a! b! c! / (a+b+c+2)!
    tetrahedron:  int lam0^a lam1^b lam2^c lam3^d dV = a! b! c! d! / (a+b+c+d+3)!

both over the reference simplex (area 1/2, volume 1/6).  The tests sweep all
monomials up to each advertised degree and compare against that formula.
"""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bodyplate.quadrature import (
    TET_MAX_DEGREE,
    TRIANGLE_MAX_DEGREE,
    QuadratureRule,
    _gauss_jacobi_01,
    physical_weights,
    tet_rule,
    triangle_rule,
)


def tri_monomial_integral(exponents):
    """Closed-form integral of a barycentric monomial over the reference triangle."""
    num = 1
    for e in exponents:
        num *= math.factorial(e)
    return num / math.factorial(sum(exponents) + 2)


def tet_monomial_integral(exponents):
    """Closed-form integral of a barycentric monomial over the reference tetrahedron."""
    num = 1
    for e in exponents:
        num *= math.factorial(e)
    return num / math.factorial(sum(exponents) + 3)


def monomials(n_vars, total_degree):
    """All exponent tuples of the given length with the given total degree."""
    return [
        e
        for e in itertools.product(range(total_degree + 1), repeat=n_vars)
        if sum(e) == total_degree
    ]


class TestTriangleRules:
    @pytest.mark.parametrize("degree", range(0, TRIANGLE_MAX_DEGREE + 1))
    def test_monomial_exactness(self, degree):
        rule = triangle_rule(degree)
        assert rule.degree >= max(degree, 1)
        for d in range(rule.degree + 1):
            for e in monomials(3, d):
                approx = float(
                    np.sum(rule.weights * np.prod(rule.points**e, axis=1))
                )
                assert approx == pytest.approx(tri_monomial_integral(e), rel=1e-12), (
                    f"degree-{rule.degree} rule fails on monomial {e}"
                )

    @pytest.mark.parametrize("degree", range(0, TRIANGLE_MAX_DEGREE + 1))
    def test_weights_positive_and_sum_to_reference_area(self, degree):
        rule = triangle_rule(degree)
        assert np.all(rule.weights > 0)
        assert float(rule.weights.sum()) == pytest.approx(0.5, rel=1e-14)

    def test_points_are_barycentric(self):
        rule = triangle_rule(6)
        assert rule.points.shape[1] == 3
        assert_allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)
        assert np.all(rule.points >= 0)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            triangle_rule(TRIANGLE_MAX_DEGREE + 1)
        with pytest.raises(ValueError):
            triangle_rule(-1)

    def test_gap_degrees_route_to_next_table(self):
        # Degree 3 is not tabulated; the rule must be at least degree 3.
        rule = triangle_rule(3)
        assert rule.degree >= 3


class TestTetRules:
    @pytest.mark.parametrize("degree", range(0, TET_MAX_DEGREE + 1))
    def test_monomial_exactness(self, degree):
        rule = tet_rule(degree)
        assert rule.degree >= max(degree, 1)
        for d in range(rule.degree + 1):
            for e in monomials(4, d):
                approx = float(
                    np.sum(rule.weights * np.prod(rule.points**e, axis=1))
                )
                assert approx == pytest.approx(tet_monomial_integral(e), rel=1e-11), (
                    f"degree-{rule.degree} rule fails on monomial {e}"
                )

    @pytest.mark.parametrize("degree", range(0, TET_MAX_DEGREE + 1))
    def test_weights_positive_and_sum_to_reference_volume(self, degree):
        rule = tet_rule(degree)
        assert np.all(rule.weights > 0)
        assert float(rule.weights.sum()) == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_points_are_barycentric(self):
        rule = tet_rule(5)
        assert rule.points.shape[1] == 4
        assert_allclose(rule.points.sum(axis=1), 1.0, atol=1e-13)
        assert np.all(rule.points >= -1e-15)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            tet_rule(TET_MAX_DEGREE + 1)

    @pytest.mark.parametrize("alpha", [0, 1, 2])
    @pytest.mark.parametrize("n", range(1, (TET_MAX_DEGREE + 1) // 2 + 2))
    def test_gauss_jacobi_matches_scipy(self, n, alpha):
        # The conical rule's 1D factors (Golub-Welsch) against scipy's
        # roots_jacobi on [-1, 1], mapped to [0, 1] with weight (1-x)^alpha.
        from scipy.special import roots_jacobi

        t, v = roots_jacobi(n, alpha, 0.0)
        x, w = _gauss_jacobi_01(n, alpha)
        assert_allclose(x, (t + 1.0) / 2.0, rtol=0, atol=1e-14)
        assert_allclose(w, v / 2.0 ** (alpha + 1), rtol=0,
                        atol=1e-14 * np.max(w))


class TestPhysicalWeights:
    def test_triangle_scaling(self):
        rule = triangle_rule(4)
        w = physical_weights(rule, 3.0)
        assert float(w.sum()) == pytest.approx(3.0, rel=1e-14)

    def test_tet_scaling(self):
        rule = tet_rule(4)
        w = physical_weights(rule, 0.25)
        assert float(w.sum()) == pytest.approx(0.25, rel=1e-13)

    def test_affine_invariance_of_integral(self):
        # Integrating x + y over the triangle (0,0), (2,0), (0,2) -- exact
        # value is 2 * (1/3 + 1/3) * area = 8/3.
        verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        rule = triangle_rule(2)
        pts = rule.points @ verts
        w = physical_weights(rule, 2.0)
        val = float(np.sum(w * (pts[:, 0] + pts[:, 1])))
        assert val == pytest.approx(8.0 / 3.0, rel=1e-14)


class TestRuleObject:
    def test_immutable_arrays(self):
        rule = triangle_rule(2)
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0
        with pytest.raises(ValueError):
            rule.points[0, 0] = 0.0

    def test_n_points(self):
        rule = triangle_rule(2)
        assert rule.n_points == rule.weights.shape[0] == rule.points.shape[0]

    def test_is_dataclass_frozen(self):
        rule = tet_rule(1)
        with pytest.raises(Exception):
            rule.degree = 99

    def test_rule_type(self):
        assert isinstance(triangle_rule(1), QuadratureRule)
        assert isinstance(tet_rule(1), QuadratureRule)
