"""Quadrature rules on the reference triangle and tetrahedron.

Rules are returned in barycentric coordinates.  Weights are scaled so that they
sum to the measure of the reference simplex (1/2 for the triangle, 1/6 for the
tetrahedron); integrating a function over a physical simplex therefore reads

    integral ~= (measure(K) / measure(ref)) * sum_q w_q * f(x_q)

or, equivalently, ``sum(physical_weights(rule, measure) * f)``.

The library integrates with three fixed degrees: ``VOLUME_DEGREE`` on tets and
plate triangles, ``FACE_DEGREE`` on faces and interface cells, and
``NORM_DEGREE`` in the error norms.

Triangle rules are symmetric positive-weight tables (Dunavant-style orbits) for
degrees up to 10.  Tetrahedron rules of every degree up to 8 are one collapsed
Gauss-Jacobi conical product (always positive weights) with n points per
direction, exact for degree 2n - 1: the centroid for degree 1 and below, and
n^3 points for degrees 2n - 2 and 2n - 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "triangle_rule",
    "tet_rule",
    "physical_weights",
    "TRIANGLE_MAX_DEGREE",
    "TET_MAX_DEGREE",
    "VOLUME_DEGREE",
    "FACE_DEGREE",
    "NORM_DEGREE",
]

TRIANGLE_MAX_DEGREE = 10
TET_MAX_DEGREE = 8

#: Tets and plate triangles.  The compliance, stress-mass and div-div
#: integrands are polynomials of degree 4 on each tet, so this rule is exact
#: for them.  The body load, the body mass and ``project_to_Vh`` share the
#: rule, so the divergence of a discrete stress solution equals the negated
#: load projection, M_V^-1 B sigma = -P f, exactly and not by two matching
#: defaults.
VOLUME_DEGREE = 4
#: Faces and interface overlay cells: traction data, coupling and jump loads.
FACE_DEGREE = 6
#: Error norms.  The exact fields are not polynomials; a rule above the
#: assembly's keeps its own error out of the measured rates.
NORM_DEGREE = 8

#: Reference measures.
TRI_MEASURE = 0.5
TET_MEASURE = 1.0 / 6.0


@dataclass(frozen=True)
class QuadratureRule:
    """A fixed quadrature rule on a reference simplex.

    Attributes
    ----------
    points : ndarray, shape (n, d+1)
        Barycentric coordinates of the quadrature points.
    weights : ndarray, shape (n,)
        Weights summing to the reference measure (1/2 or 1/6).
    degree : int
        Highest total polynomial degree integrated exactly.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_points(self) -> int:
        return self.weights.shape[0]


def physical_weights(rule: QuadratureRule, measure: float) -> np.ndarray:
    """Weights for integration over a physical simplex of the given measure."""
    ref = TRI_MEASURE if rule.points.shape[1] == 3 else TET_MEASURE
    return rule.weights * (measure / ref)


# ---------------------------------------------------------------------------
# Triangle tables.  Orbits in area coordinates; orbit weights are normalized to
# sum to 1 over the triangle and are scaled by the reference area 1/2 below.
# ---------------------------------------------------------------------------

def _orbit1() -> np.ndarray:
    return np.array([[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]])


def _orbit3(a: float) -> np.ndarray:
    """Three permutations of (1-2a, a, a)."""
    b = 1.0 - 2.0 * a
    return np.array([[b, a, a], [a, b, a], [a, a, b]])


def _orbit6(a: float, b: float) -> np.ndarray:
    """Six permutations of (1-a-b, a, b)."""
    c = 1.0 - a - b
    return np.array(
        [[c, a, b], [c, b, a], [a, c, b], [b, c, a], [a, b, c], [b, a, c]]
    )


def _tri_table() -> dict[int, tuple[np.ndarray, np.ndarray]]:
    table: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def add(degree, chunks):
        pts = np.vstack([p for p, _ in chunks])
        wts = np.concatenate([np.full(p.shape[0], w) for p, w in chunks])
        table[degree] = (pts, wts * TRI_MEASURE)

    add(1, [(_orbit1(), 1.0)])
    add(2, [(_orbit3(1.0 / 6.0), 1.0 / 3.0)])
    add(4, [
        (_orbit3(0.445948490915965), 0.223381589678011),
        (_orbit3(0.091576213509771), 0.109951743655322),
    ])
    add(5, [
        (_orbit1(), 0.225),
        (_orbit3(0.470142064105115), 0.132394152788506),
        (_orbit3(0.101286507323456), 0.125939180544827),
    ])
    add(6, [
        (_orbit3(0.249286745170910), 0.116786275726379),
        (_orbit3(0.063089014491502), 0.050844906370207),
        (_orbit6(0.310352451033785, 0.636502499121399), 0.082851075618374),
    ])
    add(8, [
        (_orbit1(), 0.144315607677787),
        (_orbit3(0.459292588292723), 0.095091634267285),
        (_orbit3(0.170569307751760), 0.103217370534718),
        (_orbit3(0.050547228317031), 0.032458497623198),
        (_orbit6(0.263112829634638, 0.728492392955404), 0.027230314174435),
    ])
    add(10, [
        (_orbit1(), 0.090817990382754),
        (_orbit3(0.485577633383657), 0.036725957756467),
        (_orbit3(0.109481575485037), 0.045321059435528),
        (_orbit6(0.307939838764121, 0.550352941820999), 0.072757916845420),
        (_orbit6(0.246672560639903, 0.728323904597411), 0.028327242531057),
        (_orbit6(0.066803251012200, 0.923655933587500), 0.009421666963733),
    ])
    return table


_TRI_TABLE = _tri_table()
_TRI_DEGREES = sorted(_TRI_TABLE)


def triangle_rule(degree: int) -> QuadratureRule:
    """Symmetric positive-weight rule exact for polynomials of total degree
    <= ``degree`` on the reference triangle (degree <= 10)."""
    if degree < 0 or degree > TRIANGLE_MAX_DEGREE:
        raise ValueError(
            f"triangle quadrature degree must be in [0, {TRIANGLE_MAX_DEGREE}], "
            f"got {degree}"
        )
    use = next(d for d in _TRI_DEGREES if d >= max(degree, 1))
    pts, wts = _TRI_TABLE[use]
    return QuadratureRule(pts.copy(), wts.copy(), use)


# ---------------------------------------------------------------------------
# Tetrahedron rules.
# ---------------------------------------------------------------------------

def _gauss_jacobi_01(n: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes/weights on [0, 1] for the weight (1-x)^alpha, by
    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    three-term recurrence of the orthonormal polynomials, and the weights
    mu_0 v_0^2 from the first components of its unit eigenvectors.

    The recurrence is that of the Jacobi polynomials P_k^(alpha, 0) on
    [-1, 1], mapped by t = 2x - 1, which halves the matrix and shifts its
    diagonal by 1/2; mu_0 = 1 / (alpha + 1) is the integral of the weight.
    """
    k = np.arange(1.0, n)
    s = 2.0 * k + alpha
    a = np.concatenate([[-alpha / (alpha + 2.0)],
                        -alpha * alpha / (s * (s + 2.0))])
    b = 2.0 * k * (k + alpha) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    J = np.diag((1.0 + a) / 2.0) + np.diag(b / 2.0, 1) + np.diag(b / 2.0, -1)
    x, v = np.linalg.eigh(J)
    return x, v[0] ** 2 / (alpha + 1.0)


@functools.cache
def _tet_conical(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed conical-product rule with n points per direction.

    Exact for total degree 2n-1; all weights positive.  Computed once per n
    (the body's blocks ask for their rule once per chunk of tets); callers
    get copies.
    """
    x1, w1 = _gauss_jacobi_01(n, 2)
    x2, w2 = _gauss_jacobi_01(n, 1)
    x3, w3 = _gauss_jacobi_01(n, 0)
    X1, X2, X3 = np.meshgrid(x1, x2, x3, indexing="ij")
    W = (w1[:, None, None] * w2[None, :, None] * w3[None, None, :]).ravel()
    x = X1.ravel()
    y = (X2 * (1.0 - X1)).ravel()
    z = (X3 * (1.0 - X1) * (1.0 - X2)).ravel()
    lam = np.column_stack([x, y, z, 1.0 - x - y - z])
    return lam, W


def tet_rule(degree: int) -> QuadratureRule:
    """Positive-weight rule exact for polynomials of total degree <= ``degree``
    on the reference tetrahedron (degree <= 8)."""
    if degree < 0 or degree > TET_MAX_DEGREE:
        raise ValueError(
            f"tetrahedron quadrature degree must be in [0, {TET_MAX_DEGREE}], "
            f"got {degree}"
        )
    n = max(degree, 1) // 2 + 1  # 2n - 1 >= degree
    pts, wts = _tet_conical(n)
    return QuadratureRule(pts.copy(), wts.copy(), 2 * n - 1)
