"""Tests for the bulk (array-backed) UserPairMatrix APIs."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.matrix import LabelIndex, UserPairMatrix


@pytest.fixture
def users():
    return LabelIndex([f"u{i}" for i in range(5)])


class TestSetBlock:
    def test_bulk_equals_pointwise(self, users):
        rows = np.array([0, 1, 3])
        cols = np.array([2, 0, 4])
        values = np.array([0.5, 0.25, 1.0])
        bulk = UserPairMatrix.from_arrays(users, rows, cols, values)
        pointwise = UserPairMatrix(users)
        for i, j, v in zip(rows, cols, values):
            pointwise.set(users.label(int(i)), users.label(int(j)), float(v))
        assert bulk == pointwise

    def test_scalar_broadcast(self, users):
        m = UserPairMatrix.from_arrays(users, [0, 1], [1, 2], 1.0)
        assert m.get("u0", "u1") == 1.0
        assert m.get("u1", "u2") == 1.0

    def test_duplicate_keys_keep_last(self, users):
        m = UserPairMatrix.from_arrays(users, [0, 0], [1, 1], [0.2, 0.9])
        assert m.num_entries() == 1
        assert m.get("u0", "u1") == pytest.approx(0.9)

    def test_block_overwrites_earlier_point_write(self, users):
        m = UserPairMatrix(users)
        m.set("u0", "u1", 0.1)
        m.set_block([0], [1], [0.7])
        assert m.get("u0", "u1") == pytest.approx(0.7)

    def test_point_write_overwrites_earlier_block(self, users):
        m = UserPairMatrix(users)
        m.set_block([0], [1], [0.7])
        m.set("u0", "u1", 0.1)
        assert m.get("u0", "u1") == pytest.approx(0.1)

    def test_explicit_zero_kept(self, users):
        m = UserPairMatrix.from_arrays(users, [2], [3], [0.0])
        assert m.contains("u2", "u3")
        assert m.to_csr().nnz == 1

    def test_out_of_range_rejected(self, users):
        with pytest.raises(ValidationError, match="positions"):
            UserPairMatrix.from_arrays(users, [5], [0], [1.0])
        with pytest.raises(ValidationError, match="positions"):
            UserPairMatrix.from_arrays(users, [0], [-1], [1.0])

    def test_non_finite_rejected(self, users):
        with pytest.raises(ValidationError, match="finite"):
            UserPairMatrix.from_arrays(users, [0], [1], [np.nan])

    def test_shape_mismatch_rejected(self, users):
        with pytest.raises(ValidationError, match="equal-length"):
            UserPairMatrix.from_arrays(users, [0, 1], [1], [0.5])

    def test_values_length_mismatch_rejected(self, users):
        with pytest.raises(ValidationError, match="values shape"):
            UserPairMatrix.from_arrays(users, [0, 1], [1, 2], [0.5, 0.6, 0.7])

    def test_restrict_to_ignores_foreign_labels(self, users):
        m = UserPairMatrix.from_arrays(users, [0], [1], [0.5])
        restricted = m.restrict_to({("u0", "u1"), ("ghost", "u1"), ("u0", "elsewhere")})
        assert restricted.support() == {("u0", "u1")}


class TestEntriesArrays:
    def test_row_major_order(self, users):
        m = UserPairMatrix(users)
        m.set("u3", "u0", 0.3)
        m.set("u0", "u4", 0.4)
        m.set("u0", "u2", 0.2)
        rows, cols, values = m.entries_arrays()
        assert rows.tolist() == [0, 0, 3]
        assert cols.tolist() == [2, 4, 0]
        assert values.tolist() == pytest.approx([0.2, 0.4, 0.3])

    def test_roundtrip(self, users):
        rng = np.random.default_rng(0)
        m = UserPairMatrix.from_arrays(
            users, rng.integers(0, 5, 12), rng.integers(0, 5, 12), rng.random(12)
        )
        rebuilt = UserPairMatrix.from_arrays(users, *m.entries_arrays())
        assert rebuilt == m


class TestSupportKeys:
    def test_keys_match_label_support(self, users):
        m = UserPairMatrix.from_arrays(users, [1, 4], [2, 0], [0.5, 0.5])
        keys = m.support_keys()
        n = len(users)
        pairs = {(users.label(int(k) // n), users.label(int(k) % n)) for k in keys}
        assert pairs == m.support()

    def test_keys_sorted_unique(self, users):
        m = UserPairMatrix.from_arrays(users, [3, 0, 3], [1, 2, 1], [1.0, 1.0, 2.0])
        keys = m.support_keys()
        assert keys.tolist() == sorted(set(keys.tolist()))
        assert len(keys) == 2

    def test_set_ops_agree_with_label_sets(self, users):
        rng = np.random.default_rng(1)
        a = UserPairMatrix.from_arrays(
            users, rng.integers(0, 5, 10), rng.integers(0, 5, 10), 1.0
        )
        b = UserPairMatrix.from_arrays(
            users, rng.integers(0, 5, 10), rng.integers(0, 5, 10), 1.0
        )
        assert a.intersect_support(b) == a.support() & b.support()
        assert a.subtract_support(b) == a.support() - b.support()


class TestCsrCache:
    def test_cached_instance_reused(self, users):
        m = UserPairMatrix.from_arrays(users, [0], [1], [0.5])
        assert m.csr() is m.csr()

    def test_cache_invalidated_by_write(self, users):
        m = UserPairMatrix.from_arrays(users, [0], [1], [0.5])
        first = m.csr()
        m.set("u2", "u3", 0.25)
        second = m.csr()
        assert second is not first
        assert second.nnz == 2

    def test_cache_invalidated_by_accumulate_and_discard(self, users):
        m = UserPairMatrix.from_arrays(users, [0], [1], [0.5])
        m.csr()
        m.accumulate("u0", "u1", 0.25)
        assert m.csr()[0, 1] == pytest.approx(0.75)
        m.discard("u0", "u1")
        assert m.csr().nnz == 0

    def test_to_csr_returns_mutable_copy(self, users):
        m = UserPairMatrix.from_arrays(users, [0], [1], [0.5])
        copy = m.to_csr()
        copy.data[0] = 99.0
        assert m.get("u0", "u1") == pytest.approx(0.5)
        assert m.csr()[0, 1] == pytest.approx(0.5)

    def test_csr_matches_to_csr(self, users):
        rng = np.random.default_rng(2)
        m = UserPairMatrix.from_arrays(
            users, rng.integers(0, 5, 15), rng.integers(0, 5, 15), rng.random(15)
        )
        assert (m.csr() != m.to_csr()).nnz == 0


class TestAccumulateScaling:
    def test_many_distinct_accumulates_stay_fast(self):
        # regression guard: accumulate used to consolidate (O(nnz)) per
        # call, turning this loop quadratic (~10 s); it must stay well
        # under a second
        n = 120
        users = [f"u{i}" for i in range(n)]
        m = UserPairMatrix(users)
        for i in range(n):
            for j in range(n):
                if i != j:
                    m.accumulate(users[i], users[j], 0.5)
        assert m.num_entries() == n * (n - 1)
        for i in range(0, n, 7):  # second pass hits the in-place branch
            m.accumulate(users[i], users[(i + 1) % n], 0.25)
            assert m.get(users[i], users[(i + 1) % n]) == pytest.approx(0.75)

    def test_accumulate_then_set_then_accumulate(self):
        m = UserPairMatrix(["a", "b"])
        m.accumulate("a", "b", 0.3)
        m.set("a", "b", 0.1)  # set after accumulate overrides the sum
        m.accumulate("a", "b", 0.2)
        assert m.get("a", "b") == pytest.approx(0.3)


class TestInterleavedWrites:
    def test_mixed_write_stream_matches_dict_semantics(self, users):
        rng = np.random.default_rng(7)
        m = UserPairMatrix(users)
        shadow: dict[tuple[str, str], float] = {}
        for step in range(60):
            kind = step % 4
            if kind == 0:
                i, j = int(rng.integers(5)), int(rng.integers(5))
                v = float(rng.random())
                m.set(users.label(i), users.label(j), v)
                shadow[(users.label(i), users.label(j))] = v
            elif kind == 1:
                rows = rng.integers(0, 5, 3)
                cols = rng.integers(0, 5, 3)
                vals = rng.random(3)
                m.set_block(rows, cols, vals)
                for i, j, v in zip(rows, cols, vals):
                    shadow[(users.label(int(i)), users.label(int(j)))] = float(v)
            elif kind == 2:
                i, j = int(rng.integers(5)), int(rng.integers(5))
                v = float(rng.random())
                m.accumulate(users.label(i), users.label(j), v)
                key = (users.label(i), users.label(j))
                shadow[key] = shadow.get(key, 0.0) + v
            else:
                assert m.num_entries() == len(shadow)  # interleave a read
        assert {(s, t): v for s, t, v in m.entries()} == pytest.approx(shadow)


class TestFromFlatSorted:
    def test_matches_from_arrays(self, users):
        n = len(users)
        rows = np.array([0, 1, 3])
        cols = np.array([2, 0, 4])
        values = np.array([0.5, 0.25, 1.0])
        keys = np.sort(rows * n + cols)
        order = np.argsort(rows * n + cols, kind="stable")
        fast = UserPairMatrix.from_flat_sorted(users, keys, values[order])
        assert fast == UserPairMatrix.from_arrays(users, rows, cols, values)

    def test_empty_keys_ok(self, users):
        m = UserPairMatrix.from_flat_sorted(
            users, np.array([], dtype=np.int64), np.array([], dtype=np.float64)
        )
        assert m.num_entries() == 0

    def test_unsorted_keys_rejected(self, users):
        with pytest.raises(ValidationError, match="strictly increasing"):
            UserPairMatrix.from_flat_sorted(users, np.array([3, 1]), np.array([0.5, 0.5]))

    def test_duplicate_keys_rejected(self, users):
        with pytest.raises(ValidationError, match="strictly increasing"):
            UserPairMatrix.from_flat_sorted(users, np.array([3, 3]), np.array([0.5, 0.5]))

    def test_out_of_range_keys_rejected(self, users):
        n = len(users)
        with pytest.raises(ValidationError, match="keys must lie"):
            UserPairMatrix.from_flat_sorted(users, np.array([n * n]), np.array([0.5]))
        with pytest.raises(ValidationError, match="keys must lie"):
            UserPairMatrix.from_flat_sorted(users, np.array([-1]), np.array([0.5]))

    def test_shape_mismatch_rejected(self, users):
        with pytest.raises(ValidationError, match="equal-length"):
            UserPairMatrix.from_flat_sorted(users, np.array([1, 2]), np.array([0.5]))

    def test_non_finite_rejected(self, users):
        with pytest.raises(ValidationError, match="finite"):
            UserPairMatrix.from_flat_sorted(users, np.array([1]), np.array([np.inf]))


def _region_of(dense, users, rows, cols):
    """All nonzero entries of ``dense`` whose row or col position changed."""
    n = dense.shape[0]
    region = UserPairMatrix(users)
    for i in range(n):
        for j in range(n):
            if (i in rows or j in cols) and dense[i, j] != 0.0:
                region.set(users.label(i), users.label(j), float(dense[i, j]))
    return region


class TestPatched:
    def _dense(self, m, n):
        out = np.zeros((n, n))
        for s, t, v in m.entries():
            out[m.users.position(s), m.users.position(t)] = v
        return out

    def test_patch_equals_dense_scatter(self, users):
        n = len(users)
        rng = np.random.default_rng(5)
        old_dense = (rng.random((n, n)) * (rng.random((n, n)) < 0.6)).round(3)
        old = UserPairMatrix.from_arrays(users, *np.nonzero(old_dense), old_dense[np.nonzero(old_dense)])
        new_dense = old_dense.copy()
        rows, cols = {1, 3}, {0}
        for i in rows:
            new_dense[i, :] = (rng.random(n) * (rng.random(n) < 0.7)).round(3)
        for j in cols:
            new_dense[:, j] = (rng.random(n) * (rng.random(n) < 0.7)).round(3)
        region = _region_of(new_dense, users, rows, cols)
        patched, kept = old.patched(
            users, region, rows=np.array(sorted(rows)), cols=np.array(sorted(cols))
        )
        np.testing.assert_array_equal(self._dense(patched, n), new_dense)
        # kept = old entries outside the changed region
        outside = sum(
            1 for s, t, _ in old.entries()
            if old.users.position(s) not in rows and old.users.position(t) not in cols
        )
        assert kept == outside

    def test_patch_with_user_growth(self, users):
        grown = LabelIndex(list(users.labels) + ["u5"])
        old = UserPairMatrix.from_arrays(users, [0, 2], [1, 3], [0.5, 0.25])
        region = UserPairMatrix(grown)
        region.set("u5", "u0", 0.75)
        region.set("u0", "u5", 0.1)
        patched, kept = old.patched(
            grown, region, rows=np.array([5]), cols=np.array([5])
        )
        assert kept == 2
        assert patched.users is grown
        assert patched.get("u0", "u1") == 0.5
        assert patched.get("u5", "u0") == 0.75
        assert patched.get("u0", "u5") == 0.1

    def test_axis_growth_alone_keeps_every_entry(self, users):
        """A joiner with no activity: no changed rows or columns, a longer axis."""
        grown = LabelIndex(list(users.labels) + ["u5", "u6"])
        old = UserPairMatrix.from_arrays(users, [0, 2, 4], [1, 3, 0], [0.5, 0.25, 0.125])
        empty = np.array([], dtype=np.int64)
        patched, kept = old.patched(grown, UserPairMatrix(grown), rows=empty, cols=empty)
        assert kept == 3
        assert patched.users is grown
        assert set(patched.entries()) == set(old.entries())

    def test_region_on_wrong_axis_rejected(self, users):
        other = LabelIndex(["a", "b", "c", "d", "e"])
        old = UserPairMatrix.from_arrays(users, [0], [1], [0.5])
        region = UserPairMatrix(other)
        with pytest.raises(ValidationError, match="region"):
            old.patched(users, region, rows=np.array([0]), cols=np.array([0]))

    def test_non_extension_axis_rejected(self, users):
        shrunk = LabelIndex(["u0", "u1"])
        old = UserPairMatrix.from_arrays(users, [0], [1], [0.5])
        region = UserPairMatrix(shrunk)
        with pytest.raises(ValidationError, match="extend"):
            old.patched(shrunk, region, rows=np.array([0]), cols=np.array([0]))

    def test_out_of_range_positions_rejected(self, users):
        old = UserPairMatrix.from_arrays(users, [0], [1], [0.5])
        region = UserPairMatrix(users)
        with pytest.raises(ValidationError, match="rows positions"):
            old.patched(users, region, rows=np.array([9]), cols=np.array([], dtype=np.int64))


class TestPatchedEdgeCases:
    def _dense(self, m, n):
        out = np.zeros((n, n))
        for s, t, v in m.entries():
            out[m.users.position(s), m.users.position(t)] = v
        return out

    def test_empty_patch_is_identity(self, users):
        old = UserPairMatrix.from_arrays(users, [0, 2], [1, 3], [0.5, 0.25])
        empty = np.empty(0, dtype=np.int64)
        patched, kept = old.patched(
            users, UserPairMatrix(users), rows=empty, cols=empty
        )
        assert patched == old
        assert kept == old.num_entries()

    def test_empty_region_with_changed_rows_clears_them(self, users):
        """A region with no entries means the changed rows became zero."""
        old = UserPairMatrix.from_arrays(users, [0, 2], [1, 3], [0.5, 0.25])
        patched, kept = old.patched(
            users,
            UserPairMatrix(users),
            rows=np.array([0]),
            cols=np.empty(0, dtype=np.int64),
        )
        assert not patched.contains("u0", "u1")
        assert patched.get("u2", "u3") == 0.25
        assert kept == 1

    def test_whole_matrix_region_replaces_everything(self, users):
        n = len(users)
        rng = np.random.default_rng(8)
        old_dense = (rng.random((n, n)) * (rng.random((n, n)) < 0.6)).round(3)
        new_dense = (rng.random((n, n)) * (rng.random((n, n)) < 0.6)).round(3)
        idx = np.nonzero(old_dense)
        old = UserPairMatrix.from_arrays(users, *idx, old_dense[idx])
        all_positions = np.arange(n, dtype=np.int64)
        region = _region_of(new_dense, users, set(range(n)), set(range(n)))
        patched, kept = old.patched(
            users, region, rows=all_positions, cols=all_positions
        )
        np.testing.assert_array_equal(self._dense(patched, n), new_dense)
        assert kept == 0  # nothing survives a whole-matrix patch

    def test_region_value_wins_over_old_at_same_key(self, users):
        """A key present in both old and region takes the region's value."""
        old = UserPairMatrix.from_arrays(users, [1, 2], [2, 3], [0.5, 0.25])
        region = UserPairMatrix(users)
        region.set("u1", "u2", 0.9)
        patched, kept = old.patched(
            users, region, rows=np.array([1]), cols=np.empty(0, dtype=np.int64)
        )
        assert patched.get("u1", "u2") == 0.9
        assert patched.get("u2", "u3") == 0.25
        assert kept == 1

    def test_overlapping_scatter_keys_within_region_last_write_wins(self, users):
        """Duplicate pending writes inside the region consolidate before
        the scatter -- the final value is the region's latest write."""
        old = UserPairMatrix.from_arrays(users, [0], [2], [0.1])
        region = UserPairMatrix(users)
        region.set("u1", "u2", 0.3)
        region.set("u1", "u2", 0.7)  # overwrites the pending write above
        patched, _ = old.patched(
            users, region, rows=np.array([1]), cols=np.empty(0, dtype=np.int64)
        )
        assert patched.get("u1", "u2") == 0.7
        assert patched.num_entries() == 2
