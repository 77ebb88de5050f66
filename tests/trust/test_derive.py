"""Tests for trust derivation (eq. 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ValidationError
from repro.matrix import UserCategoryMatrix
from repro.trust import TrustDeriver, derive_trust


def make_matrices(a_rows, e_rows, users=None, categories=None):
    users = users or [f"u{i}" for i in range(len(a_rows))]
    categories = categories or [f"c{j}" for j in range(len(a_rows[0]))]
    A = UserCategoryMatrix(users, categories, np.array(a_rows, dtype=float))
    E = UserCategoryMatrix(users, categories, np.array(e_rows, dtype=float))
    return A, E


class TestEquationFive:
    def test_hand_computed_two_by_two(self):
        # A(u0) = [0.5, 0.25]; E(u1) = [0.8, 0.4]
        # T(u0, u1) = (0.5*0.8 + 0.25*0.4)/(0.75) = 0.5/0.75 = 2/3
        A, E = make_matrices([[0.5, 0.25], [0.0, 0.0]], [[0.0, 0.0], [0.8, 0.4]])
        T = derive_trust(A, E)
        assert T.get("u0", "u1") == pytest.approx(2 / 3)

    def test_affinity_weights_matter(self):
        # u0 cares only about c0; u1 is expert only in c1 -> zero trust;
        # u2 is expert only in c0 -> full E value
        A, E = make_matrices(
            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.9], [0.7, 0.0]],
        )
        T = derive_trust(A, E)
        assert not T.contains("u0", "u1")  # zero -> not stored
        assert T.get("u0", "u2") == pytest.approx(0.7)

    def test_zero_affinity_row_produces_nothing(self):
        A, E = make_matrices([[0.0, 0.0]], [[0.9, 0.9]])
        T = derive_trust(A, E)
        assert T.num_entries() == 0

    def test_diagonal_excluded_by_default(self):
        A, E = make_matrices([[1.0]], [[0.9]])
        T = derive_trust(A, E)
        assert not T.contains("u0", "u0")

    def test_diagonal_included_on_request(self):
        A, E = make_matrices([[1.0]], [[0.9]])
        T = derive_trust(A, E, include_self=True)
        assert T.get("u0", "u0") == pytest.approx(0.9)

    def test_min_value_threshold(self):
        A, E = make_matrices(
            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.05, 0.0], [0.5, 0.0]],
        )
        T = derive_trust(A, E, min_value=0.1)
        assert not T.contains("u0", "u1")  # 0.05 below threshold
        assert T.get("u0", "u2") == pytest.approx(0.5)

    def test_axis_mismatch_rejected(self):
        A, _ = make_matrices([[1.0]], [[0.5]])
        _, E = make_matrices([[1.0]], [[0.5]], users=["other"])
        with pytest.raises(ValidationError, match="user axis"):
            derive_trust(A, E)

    def test_category_mismatch_rejected(self):
        A, _ = make_matrices([[1.0]], [[0.5]])
        _, E = make_matrices([[1.0]], [[0.5]], categories=["different"])
        with pytest.raises(ValidationError, match="category axis"):
            derive_trust(A, E)

    def test_misaligned_axes_rejected(self):
        A = UserCategoryMatrix(["u0", "u1"], ["c0"])
        E = UserCategoryMatrix(["u0", "other"], ["c0"])
        with pytest.raises(ValidationError):
            TrustDeriver().derive(A, E)


class TestBlockedComputation:
    def test_block_size_does_not_change_result(self):
        rng = np.random.default_rng(7)
        n, c = 23, 4
        a = rng.random((n, c))
        e = rng.random((n, c))
        users = [f"u{i}" for i in range(n)]
        cats = [f"c{j}" for j in range(c)]
        A = UserCategoryMatrix(users, cats, a)
        E = UserCategoryMatrix(users, cats, e)
        small = TrustDeriver(block_size=3).derive(A, E)
        large = TrustDeriver(block_size=1000).derive(A, E)
        assert small == large

    @pytest.mark.parametrize("block_size", [1, 2, 7, 19])
    def test_every_block_size_is_bitwise_equal(self, block_size):
        """Block boundaries decide which rows share a product, never a value."""
        rng = np.random.default_rng(5)
        n, c = 25, 3
        a = rng.random((n, c)) * (rng.random((n, c)) < 0.6)
        e = rng.random((n, c)) * (rng.random((n, c)) < 0.6)
        A, E = make_matrices(a.tolist(), e.tolist())
        blocked = TrustDeriver(block_size=block_size).derive(A, E)
        whole = TrustDeriver(block_size=n).derive(A, E)
        for got, want in zip(blocked.entries_arrays(), whole.entries_arrays()):
            np.testing.assert_array_equal(got, want)

    def test_zero_affinity_community_is_empty(self):
        A, E = make_matrices([[0.0], [0.0]], [[0.5], [0.5]])
        assert TrustDeriver(block_size=1).derive(A, E).num_entries() == 0

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            TrustDeriver(block_size=0)
        with pytest.raises(ValidationError):
            TrustDeriver(min_value=-0.1)


class TestDeriveForPairs:
    def test_matches_full_derivation_on_support(self):
        rng = np.random.default_rng(11)
        n, c = 12, 3
        users = [f"u{i}" for i in range(n)]
        cats = [f"c{j}" for j in range(c)]
        A = UserCategoryMatrix(users, cats, rng.random((n, c)))
        E = UserCategoryMatrix(users, cats, rng.random((n, c)))
        full = derive_trust(A, E)
        pairs = set(list(full.support())[:20])
        partial = TrustDeriver().derive_for_pairs(A, E, pairs)
        for source, target in pairs:
            assert partial.get(source, target) == pytest.approx(full.get(source, target))

    def test_stores_zero_entries_to_preserve_support(self):
        A, E = make_matrices([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.9]])
        partial = TrustDeriver().derive_for_pairs(A, E, {("u0", "u1")})
        assert partial.contains("u0", "u1")
        assert partial.get("u0", "u1") == 0.0

    def test_zero_affinity_source_gets_zero(self):
        A, E = make_matrices([[0.0]], [[0.9]], users=["u0"])
        E2 = UserCategoryMatrix(["u0", "u1"], ["c0"], np.array([[0.0], [0.9]]))
        A2 = UserCategoryMatrix(["u0", "u1"], ["c0"], np.array([[0.0], [1.0]]))
        partial = TrustDeriver().derive_for_pairs(A2, E2, {("u0", "u1")})
        assert partial.get("u0", "u1") == 0.0

    def test_skips_diagonal_pairs(self):
        A, E = make_matrices([[1.0]], [[0.9]])
        partial = TrustDeriver().derive_for_pairs(A, E, {("u0", "u0")})
        assert partial.num_entries() == 0


unit_matrix = st.tuples(st.integers(2, 6), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(
            st.floats(0, 1, allow_nan=False, width=32),
            min_size=shape[1],
            max_size=shape[1],
        ),
        min_size=shape[0],
        max_size=shape[0],
    )
)


class TestDerivationProperties:
    @given(unit_matrix, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_values_bounded_by_target_expertise(self, rows, rnd):
        """T-hat_ij is a weighted mean of E_j*, so it can't exceed max_c E_jc."""
        a = np.array(rows, dtype=float)
        e = np.array(rows, dtype=float).T[: a.shape[1], : a.shape[0]].T
        if e.shape != a.shape:
            e = np.resize(e, a.shape)
        e = np.clip(e, 0, 1)
        users = [f"u{i}" for i in range(a.shape[0])]
        cats = [f"c{j}" for j in range(a.shape[1])]
        T = derive_trust(
            UserCategoryMatrix(users, cats, a), UserCategoryMatrix(users, cats, e)
        )
        for source, target, value in T.entries():
            j = users.index(target)
            assert value <= e[j].max() + 1e-9
            assert 0.0 <= value <= 1.0 + 1e-9


class TestDeriveRegion:
    """derive_region must store bitwise what a full derive stores there."""

    def _random_matrices(self, seed, n=19, c=3):
        rng = np.random.default_rng(seed)
        a = rng.random((n, c)) * (rng.random((n, c)) < 0.7)
        e = rng.random((n, c)) * (rng.random((n, c)) < 0.7)
        users = [f"u{i}" for i in range(n)]
        cats = [f"c{j}" for j in range(c)]
        return (
            UserCategoryMatrix(users, cats, a),
            UserCategoryMatrix(users, cats, e),
        )

    def _region_support(self, full, rows, cols):
        users = full.users
        keep = {
            (s, t)
            for s, t in full.support()
            if users.position(s) in rows or users.position(t) in cols
        }
        return full.restrict_to(keep)

    @pytest.mark.parametrize(
        "rows,cols",
        [
            ((2, 7), (4,)),          # single col exercises the padded path
            ((0,), ()),              # rows only
            ((), (3, 8, 11)),        # cols only
            ((1, 2, 3, 4), (1, 2)),  # overlapping rows and cols
        ],
    )
    def test_bitwise_equals_full_derive_on_region(self, rows, cols):
        A, E = self._random_matrices(23)
        deriver = TrustDeriver()
        full = deriver.derive(A, E)
        region = deriver.derive_region(
            A, E, rows=np.asarray(rows, dtype=np.int64), cols=np.asarray(cols, dtype=np.int64)
        )
        expected = self._region_support(full, set(rows), set(cols))
        assert region.support() == expected.support()
        for s, t, v in region.entries():
            # bitwise: exact float equality, no tolerance
            assert v == full.get(s, t)

    def test_empty_region_is_empty(self):
        A, E = self._random_matrices(3)
        region = TrustDeriver().derive_region(
            A, E, rows=np.array([], dtype=np.int64), cols=np.array([], dtype=np.int64)
        )
        assert region.num_entries() == 0

    def test_block_size_does_not_change_region(self):
        A, E = self._random_matrices(9)
        rows = np.array([1, 5, 6], dtype=np.int64)
        cols = np.array([0, 2], dtype=np.int64)
        small = TrustDeriver(block_size=2).derive_region(A, E, rows=rows, cols=cols)
        large = TrustDeriver(block_size=1000).derive_region(A, E, rows=rows, cols=cols)
        assert small == large

    def test_out_of_range_positions_rejected(self):
        A, E = self._random_matrices(1, n=4)
        with pytest.raises(ValidationError, match="rows positions"):
            TrustDeriver().derive_region(
                A, E, rows=np.array([4]), cols=np.array([], dtype=np.int64)
            )
        with pytest.raises(ValidationError, match="cols positions"):
            TrustDeriver().derive_region(
                A, E, rows=np.array([], dtype=np.int64), cols=np.array([-1])
            )
