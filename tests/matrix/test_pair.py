"""Tests for UserPairMatrix."""

import numpy as np
import pytest
from scipy import sparse

from repro.common.errors import ValidationError
from repro.matrix import LabelIndex, UserPairMatrix


@pytest.fixture
def matrix():
    m = UserPairMatrix(["u1", "u2", "u3"])
    m.set("u1", "u2", 0.8)
    m.set("u1", "u3", 0.3)
    m.set("u2", "u1", 0.5)
    return m


class TestWrites:
    def test_set_get(self, matrix):
        assert matrix.get("u1", "u2") == pytest.approx(0.8)

    def test_get_default_for_absent(self, matrix):
        assert matrix.get("u3", "u1") == 0.0
        assert matrix.get("u3", "u1", default=-1.0) == -1.0

    def test_overwrite_does_not_double_count(self, matrix):
        matrix.set("u1", "u2", 0.9)
        assert matrix.num_entries() == 3
        assert matrix.get("u1", "u2") == pytest.approx(0.9)

    def test_explicit_zero_is_stored(self, matrix):
        matrix.set("u3", "u1", 0.0)
        assert matrix.contains("u3", "u1")
        assert matrix.num_entries() == 4

    def test_accumulate(self, matrix):
        matrix.accumulate("u1", "u2", 0.1)
        matrix.accumulate("u3", "u2", 1.0)
        assert matrix.get("u1", "u2") == pytest.approx(0.9)
        assert matrix.get("u3", "u2") == pytest.approx(1.0)

    def test_discard(self, matrix):
        matrix.discard("u1", "u2")
        assert not matrix.contains("u1", "u2")
        assert matrix.num_entries() == 2
        matrix.discard("u1", "u2")  # no-op
        assert matrix.num_entries() == 2

    def test_non_finite_rejected(self, matrix):
        with pytest.raises(ValidationError):
            matrix.set("u1", "u2", float("nan"))
        with pytest.raises(ValidationError):
            matrix.set("u1", "u2", float("inf"))

    def test_bool_rejected(self, matrix):
        with pytest.raises(ValidationError):
            matrix.set("u1", "u2", True)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, "0.5"])
    def test_accumulate_rejects_what_set_rejects(self, matrix, value):
        with pytest.raises(ValidationError):
            matrix.accumulate("u1", "u2", value)
        assert matrix.get("u1", "u2") == pytest.approx(0.8)

    def test_unknown_user_rejected(self, matrix):
        with pytest.raises(KeyError):
            matrix.set("ghost", "u1", 0.5)


class TestReads:
    def test_row(self, matrix):
        assert matrix.row("u1") == {"u2": 0.8, "u3": 0.3}
        assert matrix.row("u3") == {}

    def test_row_size(self, matrix):
        assert matrix.row_size("u1") == 2
        assert matrix.row_size("u3") == 0

    def test_source_ids(self, matrix):
        assert set(matrix.source_ids()) == {"u1", "u2"}

    def test_entries(self, matrix):
        triples = set(matrix.entries())
        assert ("u1", "u2", 0.8) in triples
        assert len(triples) == 3

    def test_support(self, matrix):
        assert matrix.support() == {("u1", "u2"), ("u1", "u3"), ("u2", "u1")}

    def test_density(self, matrix):
        # 3 entries out of 3*2 ordered pairs
        assert matrix.density() == pytest.approx(0.5)

    def test_density_empty_axis(self):
        assert UserPairMatrix([]).density() == 0.0

    def test_values(self, matrix):
        assert sorted(matrix.values()) == pytest.approx([0.3, 0.5, 0.8])


class TestCsrRoundtrip:
    def test_to_csr_shape_and_values(self, matrix):
        csr = matrix.to_csr()
        assert csr.shape == (3, 3)
        assert csr[0, 1] == pytest.approx(0.8)
        assert csr[1, 0] == pytest.approx(0.5)

    def test_from_csr_roundtrip(self, matrix):
        rebuilt = UserPairMatrix.from_csr(matrix.to_csr(), matrix.users)
        assert rebuilt == matrix

    def test_from_csr_drops_zeros_by_default(self):
        users = LabelIndex(["a", "b"])
        csr = sparse.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
        m = UserPairMatrix.from_csr(csr, users)
        assert m.num_entries() == 1

    def test_from_csr_shape_mismatch(self):
        with pytest.raises(ValidationError):
            UserPairMatrix.from_csr(sparse.csr_matrix((2, 2)), LabelIndex(["a"]))


class TestSetOperations:
    def test_intersect_support(self, matrix):
        other = UserPairMatrix(matrix.users)
        other.set("u1", "u2", 1.0)
        other.set("u3", "u1", 1.0)
        assert matrix.intersect_support(other) == {("u1", "u2")}

    def test_subtract_support(self, matrix):
        other = UserPairMatrix(matrix.users)
        other.set("u1", "u2", 1.0)
        assert matrix.subtract_support(other) == {("u1", "u3"), ("u2", "u1")}

    def test_restrict_to(self, matrix):
        restricted = matrix.restrict_to({("u1", "u3"), ("u2", "u1")})
        assert restricted.support() == {("u1", "u3"), ("u2", "u1")}
        assert restricted.get("u1", "u3") == pytest.approx(0.3)

    def test_axis_mismatch_rejected(self, matrix):
        other = UserPairMatrix(["u1", "u2"])
        with pytest.raises(ValidationError, match="axes differ"):
            matrix.intersect_support(other)

    def test_from_pairs_mapping(self):
        m = UserPairMatrix.from_pairs(["a", "b"], {("a", "b"): 0.5})
        assert m.get("a", "b") == 0.5

    def test_from_pairs_triples(self):
        m = UserPairMatrix.from_pairs(["a", "b"], [("b", "a", 0.25)])
        assert m.get("b", "a") == 0.25
