"""Tests for EigenTrust."""

import networkx as nx
import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.matrix import LabelIndex, UserPairMatrix
from repro.perf.reference import reference_eigen_trust
from repro.propagation import eigen_trust


def graph(edges):
    g = nx.DiGraph()
    for source, target, weight in edges:
        g.add_edge(source, target, trust=weight)
    return g


class TestEigenTrust:
    def test_scores_sum_to_one(self):
        g = graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
        scores = eigen_trust(g)
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_symmetric_cycle_is_uniform(self):
        g = graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
        scores = eigen_trust(g)
        for value in scores.values():
            assert value == pytest.approx(1 / 3, abs=1e-6)

    def test_popular_node_scores_higher(self):
        g = graph(
            [
                ("a", "hub", 1.0),
                ("b", "hub", 1.0),
                ("c", "hub", 1.0),
                ("hub", "a", 1.0),
            ]
        )
        scores = eigen_trust(g)
        assert scores["hub"] == max(scores.values())

    def test_empty_graph(self):
        assert eigen_trust(nx.DiGraph()) == {}

    def test_isolated_nodes_handled(self):
        g = graph([("a", "b", 1.0)])
        g.add_node("loner")
        scores = eigen_trust(g)
        assert "loner" in scores
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_pretrust_biases_scores(self):
        g = graph([("a", "b", 1.0), ("b", "a", 1.0), ("a", "c", 1.0), ("c", "a", 1.0)])
        neutral = eigen_trust(g)
        biased = eigen_trust(g, pretrust={"b": 1.0}, alpha=0.5)
        assert biased["b"] > neutral["b"]

    def test_edge_weights_matter(self):
        g = graph([("a", "b", 1.0), ("a", "c", 0.1), ("b", "a", 1.0), ("c", "a", 1.0)])
        scores = eigen_trust(g)
        assert scores["b"] > scores["c"]

    def test_negative_weight_rejected(self):
        g = graph([("a", "b", -0.5)])
        with pytest.raises(ValidationError):
            eigen_trust(g)

    def test_pretrust_validation(self):
        g = graph([("a", "b", 1.0)])
        with pytest.raises(ValidationError, match="unknown node"):
            eigen_trust(g, pretrust={"ghost": 1.0})
        with pytest.raises(ValidationError, match="non-negative"):
            eigen_trust(g, pretrust={"a": -1.0})
        with pytest.raises(ValidationError, match="positive total"):
            eigen_trust(g, pretrust={"a": 0.0})

    def test_deterministic(self):
        g = graph([("a", "b", 0.8), ("b", "c", 0.4), ("c", "a", 1.0)])
        assert eigen_trust(g) == eigen_trust(g)

    @pytest.mark.parametrize(
        "edges",
        [[("a", "b", 1.0), ("b", "c", 0.5)], []],
        ids=["c-and-d-dangle", "all-dangle"],
    )
    def test_dangling_users_match_reference(self, edges):
        """Users with no outgoing edges exercise the dangling-mass term."""
        matrix = UserPairMatrix(LabelIndex(["a", "b", "c", "d"]))
        for source, target, weight in edges:
            matrix.set(source, target, weight)
        scores = eigen_trust(matrix)
        assert scores.converged
        expected = reference_eigen_trust(matrix)
        assert dict(scores) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_warm_start_mapping_reaches_cold_fixed_point(self):
        g = graph([("a", "b", 0.8), ("b", "c", 0.4), ("c", "a", 1.0), ("a", "c", 0.2)])
        pretrust = {"a": 0.5, "c": 0.5}
        cold = eigen_trust(g, pretrust=pretrust)
        warm = eigen_trust(g, pretrust=pretrust, initial={"b": 1.0})
        assert dict(warm) == pytest.approx(dict(cold), abs=1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pretrust": {"a": float("nan")}},
            {"pretrust": {"a": float("inf")}},
            {"pretrust": {"a": 1e308, "b": 1e308}},
            {"initial": np.array([float("nan"), 1.0, 1.0])},
            {"initial": np.array([float("inf"), 1.0, 1.0])},
            {"initial": {"a": float("nan")}},
            {"initial": {"a": float("inf")}},
            {"initial": np.array([1e308, 1e308, 0.0])},
        ],
        ids=[
            "pretrust-nan",
            "pretrust-inf",
            "pretrust-total-overflows",
            "initial-array-nan",
            "initial-array-inf",
            "initial-mapping-nan",
            "initial-mapping-inf",
            "initial-total-overflows",
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_start_vectors_rejected(self, kwargs):
        g = graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
        with pytest.raises(ValidationError, match="finite"):
            eigen_trust(g, **kwargs)


def random_web(num_users, seed, density):
    """A random non-negative trust web with no self-edges."""
    users = LabelIndex([f"u{i}" for i in range(num_users)])
    rng = np.random.default_rng(seed)
    dense = rng.random((num_users, num_users)) * (
        rng.random((num_users, num_users)) < density
    )
    np.fill_diagonal(dense, 0.0)
    rows, cols = np.nonzero(dense)
    return UserPairMatrix.from_arrays(users, rows, cols, dense[rows, cols])


class TestReferenceParity:
    """The sparse iteration agrees with the dense seed implementation."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "density", [0.05, 0.3, 0.9], ids=["mostly-dangling", "sparse", "dense"]
    )
    def test_random_web_matches_reference(self, seed, density):
        web = random_web(24, seed, density)
        scores = eigen_trust(web)
        assert scores.converged
        expected = reference_eigen_trust(web)
        assert dict(scores) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    def test_alpha_matches_reference(self, alpha):
        web = random_web(24, 4, 0.3)
        scores = eigen_trust(web, alpha=alpha)
        expected = reference_eigen_trust(web, alpha=alpha)
        assert dict(scores) == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestInvariances:
    def test_relabelling_users_permutes_scores(self):
        web = random_web(15, 6, 0.3)
        order = np.random.default_rng(6).permutation(15)
        labels = [web.users.label(int(i)) for i in order]
        shuffled = UserPairMatrix(LabelIndex(labels))
        for source, target, value in web.entries():
            shuffled.set(source, target, value)
        assert dict(eigen_trust(shuffled)) == pytest.approx(
            dict(eigen_trust(web)), rel=1e-9, abs=1e-12
        )

    def test_scaling_all_weights_changes_nothing(self):
        """Each row is normalised, so only relative trust counts."""
        web = random_web(15, 7, 0.3)
        rows, cols, values = web.entries_arrays()
        scaled = UserPairMatrix.from_arrays(web.users, rows, cols, values * 8.0)
        np.testing.assert_allclose(
            eigen_trust(scaled).scores_array(),
            eigen_trust(web).scores_array(),
            rtol=1e-12,
            atol=0.0,
        )

    def test_custom_weight_key_on_graph_input(self):
        g = nx.DiGraph()
        g.add_edge("a", "b", w=0.9)
        g.add_edge("a", "c", w=0.1)
        g.add_edge("b", "a", w=1.0)
        g.add_edge("c", "a", w=1.0)
        weighted = graph([("a", "b", 0.9), ("a", "c", 0.1), ("b", "a", 1.0), ("c", "a", 1.0)])
        assert dict(eigen_trust(g, weight_key="w")) == dict(eigen_trust(weighted))

    def test_missing_weight_attribute_counts_as_one(self):
        g = nx.DiGraph([("a", "b"), ("b", "c"), ("c", "a")])
        weighted = graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
        assert dict(eigen_trust(g)) == dict(eigen_trust(weighted))

    def test_looser_tolerance_stops_sooner_near_the_fixed_point(self):
        web = random_web(20, 8, 0.2)
        tight = eigen_trust(web)
        loose = eigen_trust(web, tolerance=1e-4)
        assert loose.iterations < tight.iterations
        assert loose.residual < 1e-4
        np.testing.assert_allclose(
            loose.scores_array(), tight.scores_array(), rtol=0, atol=1e-3
        )


class TestMatrixInputEdgeCases:
    def test_matrix_without_entries_scores_every_user_uniformly(self):
        scores = eigen_trust(UserPairMatrix(LabelIndex(["a", "b"])))
        np.testing.assert_array_equal(scores.scores_array(), [0.5, 0.5])
        assert scores.converged

    def test_explicit_zero_row_is_dangling(self):
        """A row whose stored entries are all 0 spreads like a row with none."""
        with_zero = UserPairMatrix(LabelIndex(["a", "b", "c"]))
        with_zero.set("a", "b", 1.0)
        with_zero.set("b", "c", 0.0)
        without = UserPairMatrix(LabelIndex(["a", "b", "c"]))
        without.set("a", "b", 1.0)
        np.testing.assert_array_equal(
            eigen_trust(with_zero).scores_array(), eigen_trust(without).scores_array()
        )

    def test_alpha_one_returns_pretrust(self):
        web = random_web(6, 8, 0.5)
        scores = eigen_trust(web, alpha=1.0, pretrust={"u0": 3.0, "u2": 1.0})
        expected = np.zeros(6)
        expected[[0, 2]] = [0.75, 0.25]
        np.testing.assert_allclose(scores.scores_array(), expected, rtol=0, atol=1e-15)

    def test_pretrust_mass_is_normalised(self):
        web = random_web(8, 9, 0.4)
        small = eigen_trust(web, pretrust={"u0": 1.0, "u1": 3.0})
        large = eigen_trust(web, pretrust={"u0": 10.0, "u1": 30.0})
        assert dict(small) == pytest.approx(dict(large), rel=1e-12)


class TestWarmStart:
    def test_previous_scores_reach_the_same_fixed_point_sooner(self):
        web = random_web(30, 10, 0.2)
        cold = eigen_trust(web)
        warm = eigen_trust(web, initial=cold.scores_array())
        assert warm.iterations < cold.iterations
        assert dict(warm) == pytest.approx(dict(cold), abs=1e-9)

    def test_warm_start_with_pretrust_matches_cold(self):
        web = random_web(24, 2, 0.3)
        pretrust = {"u0": 0.5, "u3": 0.5}
        cold = eigen_trust(web, pretrust=pretrust)
        warm = eigen_trust(web, pretrust=pretrust, initial={"u1": 1.0})
        assert dict(warm) == pytest.approx(dict(cold), abs=1e-9)

    def test_zero_mass_initial_is_the_cold_start(self):
        web = random_web(10, 11, 0.3)
        cold = eigen_trust(web)
        zero = eigen_trust(web, initial=np.zeros(10))
        np.testing.assert_array_equal(zero.scores_array(), cold.scores_array())
        assert zero.iterations == cold.iterations

    def test_initial_array_shape_checked(self):
        web = random_web(5, 12, 0.5)
        with pytest.raises(ValidationError, match="shape"):
            eigen_trust(web, initial=np.ones(4))

    @pytest.mark.parametrize(
        "initial",
        [np.array([1.0, -0.5, 1.0]), {"b": -1.0}],
        ids=["array", "mapping"],
    )
    def test_negative_initial_rejected(self, initial):
        g = graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
        with pytest.raises(ValidationError, match="non-negative"):
            eigen_trust(g, initial=initial)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha": -0.1},
        {"alpha": 1.5},
        {"tolerance": 0.0},
        {"max_iterations": 0},
    ],
    ids=["alpha-negative", "alpha-above-one", "zero-tolerance", "zero-iterations"],
)
def test_invalid_parameters_rejected(kwargs):
    g = graph([("a", "b", 1.0)])
    with pytest.raises(ValidationError):
        eigen_trust(g, **kwargs)
