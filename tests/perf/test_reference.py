"""Hand-checked cases for the frozen seed implementations.

The equivalence tests use these functions as the oracle for the
vectorised kernels, so their own semantics are pinned here on inputs
small enough to work out by hand.
"""

import pytest

from repro.common.errors import ConvergenceError, ValidationError
from repro.matrix import LabelIndex, UserPairMatrix
from repro.perf.reference import (
    reference_binarize_top_k,
    reference_eigen_trust,
    reference_generousness,
)


def pairs(users, triples):
    matrix = UserPairMatrix(LabelIndex(users))
    for source, target, value in triples:
        matrix.set(source, target, value)
    return matrix


class TestReferenceEigenTrust:
    def test_empty_axis_gives_no_scores(self):
        assert reference_eigen_trust(UserPairMatrix(LabelIndex([]))) == {}

    def test_cycle_is_uniform(self):
        web = pairs("abc", [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
        scores = reference_eigen_trust(web)
        assert scores == pytest.approx({"a": 1 / 3, "b": 1 / 3, "c": 1 / 3})

    def test_iteration_cap_raises(self):
        web = pairs("abc", [("a", "b", 1.0), ("b", "c", 0.2), ("a", "c", 0.7)])
        with pytest.raises(ConvergenceError):
            reference_eigen_trust(web, max_iterations=1)


class TestReferenceGenerousness:
    def test_share_of_connections_that_are_trusted(self):
        connections = pairs("abcd", [("a", "b", 1), ("a", "c", 1), ("a", "d", 1), ("b", "a", 1)])
        truth = pairs("abcd", [("a", "b", 1), ("b", "c", 1)])
        assert reference_generousness(connections, truth) == {"a": 1 / 3, "b": 0.0}

    def test_users_without_connections_are_omitted(self):
        connections = pairs("abc", [("a", "b", 1)])
        assert set(reference_generousness(connections, pairs("abc", []))) == {"a"}

    def test_axis_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="user axis"):
            reference_generousness(pairs("ab", []), pairs("abc", []))


class TestReferenceBinarizeTopK:
    def test_keeps_the_highest_values(self):
        matrix = pairs("abcd", [("a", "b", 0.2), ("a", "c", 0.9), ("a", "d", 0.5)])
        result = reference_binarize_top_k(matrix, {"a": 2 / 3})
        assert set(result.entries()) == {("a", "c", 1.0), ("a", "d", 1.0)}

    def test_ties_go_to_earlier_axis_positions(self):
        matrix = pairs("abcd", [("a", "d", 0.5), ("a", "b", 0.5), ("a", "c", 0.5)])
        result = reference_binarize_top_k(matrix, {"a": 0.34})
        assert result.support() == {("a", "b")}

    def test_half_rounds_up(self):
        matrix = pairs("abc", [("a", "b", 0.3), ("a", "c", 0.6), ("b", "a", 0.4)])
        result = reference_binarize_top_k(matrix, {}, default_k=0.5)
        # a: round(0.5 * 2) = 1 kept; b: round(0.5 * 1) = 1 kept
        assert result.support() == {("a", "c"), ("b", "a")}

    @pytest.mark.parametrize(
        "k_by_user,default_k",
        [({"a": 1.5}, 0.0), ({"a": -0.1}, 0.0), ({}, 1.2)],
        ids=["k-above-one", "k-negative", "default-above-one"],
    )
    def test_fraction_out_of_range_rejected(self, k_by_user, default_k):
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            reference_binarize_top_k(pairs("ab", []), k_by_user, default_k=default_k)
