import numpy as np
import pytest

from betaplane.errors import ValidationError
from betaplane.grid import assemble, build_grid
from oracles import graded_nodes, rayleigh_quotient


def zero_q(y):
    return np.zeros_like(y)


class TestBuildGrid:
    def test_uniform_n3(self):
        g = build_grid(3)
        assert g.h == 0.5
        np.testing.assert_allclose(g.nodes, [-0.5, 0.0, 0.5], atol=0)

    def test_uniform_n7(self):
        g = build_grid(7)
        assert g.h == 0.25
        assert g.nodes[0] == -0.75

    def test_nodes_strictly_inside(self):
        g = build_grid(100)
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] > -1 and g.nodes[-1] < 1

    def test_nodes_exactly_antisymmetric(self):
        for n in (3, 256, 1000, 1024):
            g = build_grid(n)
            assert np.array_equal(g.nodes, -g.nodes[::-1])

    def test_graded_monotone_and_refined_left(self):
        # the wall-refined mesh of tests/oracles.py
        nodes = graded_nodes(64, 0.85)
        gaps = np.diff(np.concatenate(([-1.0], nodes, [1.0])))
        assert gaps[0] < gaps[-1]
        assert np.all(np.diff(nodes) > 0)
        # at least a quarter of the nodes in the left tenth of the interval
        assert np.sum(nodes < -0.8) >= 16

    def test_count_validation(self):
        with pytest.raises(ValidationError, match="invalid-count"):
            build_grid(2)

    def test_ratio_validation(self):
        with pytest.raises(ValidationError, match="invalid-ratio"):
            graded_nodes(64, 1.3)
        with pytest.raises(ValidationError, match="invalid-ratio"):
            graded_nodes(64, None)


class TestAssemble:
    def test_laplacian_n3(self):
        op = assemble(build_grid(3), zero_q)
        np.testing.assert_allclose(op.diag, [8.0, 8.0, 8.0], atol=0)
        np.testing.assert_allclose(op.off, [-4.0, -4.0], atol=0)

    def test_constant_potential_shifts_diagonal(self):
        op = assemble(build_grid(3), lambda y: np.ones_like(y))
        np.testing.assert_allclose(op.diag, [9.0, 9.0, 9.0], atol=0)

    def test_rational_potential_entry(self):
        op = assemble(build_grid(7), lambda y: -1.0 / (y + 2.0))
        assert op.diag[0] == pytest.approx(32.0 - 1.0 / 1.25, abs=1e-14)

    def test_linear_in_q(self):
        g = build_grid(17)
        q1 = lambda y: np.sin(y)
        q2 = lambda y: y**2
        base = assemble(g, zero_q)
        combined = assemble(g, lambda y: q1(y) + q2(y))
        np.testing.assert_allclose(
            combined.diag,
            assemble(g, q1).diag + assemble(g, q2).diag - base.diag,
            rtol=0,
            atol=1e-12,
        )

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_non_finite_potential_rejected(self):
        with pytest.raises(ValidationError, match="non-finite-potential"):
            assemble(build_grid(7), lambda y: 1.0 / y)


class TestRayleighQuotient:
    def test_eigenvector_gives_eigenvalue(self):
        g = build_grid(31)
        v = np.sin(np.pi * (g.nodes + 1) / 2)
        lam1 = (2 / g.h**2) * (1 - np.cos(np.pi * g.h / 2))
        assert rayleigh_quotient(g, zero_q, v) == pytest.approx(lam1, abs=1e-10)

    def test_sine_samples_near_continuum(self):
        g = build_grid(256)
        v = np.sin(np.pi * (g.nodes + 1) / 2)
        assert rayleigh_quotient(g, zero_q, v) == pytest.approx(np.pi**2 / 4, abs=1e-3)

    def test_constant_vector_penalized_by_boundary(self):
        g = build_grid(64)
        v = np.ones(64)
        assert rayleigh_quotient(g, zero_q, v) > np.pi**2 / 4

    def test_lower_bound_property(self, rng):
        g = build_grid(41)
        lam1 = (2 / g.h**2) * (1 - np.cos(np.pi * g.h / 2))
        for _ in range(20):
            v = rng.standard_normal(41)
            assert rayleigh_quotient(g, zero_q, v) >= lam1 - 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError, match="zero-vector"):
            rayleigh_quotient(build_grid(5), zero_q, np.zeros(5))


def test_discrete_laplacian_closed_form_spectrum():
    # full agreement with (2/h^2)(1 - cos(j pi h / 2)) for small matrices
    from betaplane.eigen import nth_eigenvalue

    for n in (3, 8, 16):
        g = build_grid(n)
        op = assemble(g, zero_q)
        for j in range(1, n + 1):
            expected = (2 / g.h**2) * (1 - np.cos(j * np.pi * g.h / 2))
            assert nth_eigenvalue(op, j, tol=2.5e-13) == pytest.approx(expected, abs=1e-12)
