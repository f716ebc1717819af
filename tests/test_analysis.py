"""Unit tests for the theorem-bound checks and spectral diagnostics."""

import numpy as np
import pytest

from repro.analysis import (
    captured_energy,
    check_theorem_3_1,
    check_theorem_5_1,
    effective_rank,
    loss_curve,
    singular_profile,
)
from repro.core import GEBEPoisson, PoissonPMF, UniformPMF
from repro.datasets import erdos_renyi_bipartite, figure1_graph, power_law_bipartite


class TestTheorem31:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bound_holds_on_figure1(self, k):
        check = check_theorem_3_1(figure1_graph(), PoissonPMF(lam=1.0), 10, k)
        assert check.holds
        assert check.measured_loss >= 0

    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_bound_holds_on_random_weighted(self, k):
        graph = erdos_renyi_bipartite(30, 20, 150, weighted=True, seed=1)
        check = check_theorem_3_1(graph, PoissonPMF(lam=1.0), 8, k)
        assert check.holds

    def test_bound_holds_for_uniform_pmf(self):
        check = check_theorem_3_1(figure1_graph(), UniformPMF(tau=6), 6, 2)
        assert check.holds

    def test_loss_shrinks_with_k(self):
        graph = erdos_renyi_bipartite(25, 15, 120, seed=2)
        losses = [
            check_theorem_3_1(graph, PoissonPMF(lam=1.0), 6, k).measured_loss
            for k in (2, 6, 12)
        ]
        assert losses[0] >= losses[1] >= losses[2]

    def test_sigma_decreases_with_k(self):
        graph = erdos_renyi_bipartite(25, 15, 120, seed=2)
        sigmas = [
            check_theorem_3_1(graph, PoissonPMF(lam=1.0), 6, k).sigma_k_plus_1
            for k in (2, 6, 12)
        ]
        assert sigmas[0] >= sigmas[1] >= sigmas[2]

    def test_k_validated(self):
        with pytest.raises(ValueError):
            check_theorem_3_1(figure1_graph(), PoissonPMF(lam=1.0), 5, 0)
        with pytest.raises(ValueError):
            check_theorem_3_1(figure1_graph(), PoissonPMF(lam=1.0), 5, 4)


class TestTheorem51:
    @pytest.fixture
    def graph(self):
        return erdos_renyi_bipartite(30, 20, 150, weighted=True, seed=1)

    @pytest.mark.parametrize("k", [3, 6, 10])
    def test_bounds_hold(self, graph, k):
        check = check_theorem_5_1(graph, k, epsilon=0.1)
        assert check.holds

    def test_bounds_hold_on_a_tall_power_law_graph(self):
        """The benchmark's fit-tall shape (|V| = 5 |U|, Zipf degrees, k=32),
        scaled down so the dense reference SVD stays small."""
        graph = power_law_bipartite(400, 2000, 3000, exponent=0.8, seed=1)
        assert check_theorem_5_1(graph, 32, epsilon=0.1).holds

    def test_larger_epsilon_larger_bound(self, graph):
        tight = check_theorem_5_1(graph, 5, epsilon=0.05)
        loose = check_theorem_5_1(graph, 5, epsilon=0.5)
        assert loose.bound_uut > tight.bound_uut
        assert loose.bound_uv > tight.bound_uv

    def test_accepts_precomputed_result(self, graph):
        result = GEBEPoisson(
            dimension=4, normalization="sym", seed=0
        ).fit(graph)
        check = check_theorem_5_1(graph, 4, result=result)
        assert check.holds

    def test_k_validated(self, graph):
        with pytest.raises(ValueError):
            check_theorem_5_1(graph, 0)
        with pytest.raises(ValueError):
            check_theorem_5_1(graph, 20)


class TestSpectra:
    def test_singular_profile_sorted(self):
        graph = erdos_renyi_bipartite(40, 30, 250, seed=3)
        profile = singular_profile(graph, 8)
        assert profile.shape == (8,)
        assert (np.diff(profile) <= 1e-9).all()
        assert profile[0] == pytest.approx(1.0, abs=1e-6)  # sym normalization

    def test_captured_energy_monotone_to_one(self):
        captured = captured_energy(np.array([3.0, 2.0, 1.0]))
        assert (np.diff(captured) >= 0).all()
        assert captured[-1] == pytest.approx(1.0)
        assert captured[0] == pytest.approx(9.0 / 14.0)

    def test_effective_rank(self):
        values = np.array([10.0, 1.0, 1.0])
        # energy: 100, 1, 1 -> rank 1 captures 100/102 > 0.9
        assert effective_rank(values, 0.9) == 1
        assert effective_rank(values, 0.999) == 3

    def test_effective_rank_validated(self):
        with pytest.raises(ValueError):
            effective_rank(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            captured_energy(np.array([]))

    def test_loss_curve_non_increasing(self):
        graph = erdos_renyi_bipartite(20, 15, 100, seed=4)
        losses = loss_curve(graph, PoissonPMF(lam=1.0), 6, [2, 5, 10, 20])
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-9

    def test_loss_curve_validates_k(self):
        with pytest.raises(ValueError):
            loss_curve(figure1_graph(), PoissonPMF(lam=1.0), 5, [0])
