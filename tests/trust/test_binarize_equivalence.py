"""The array-pass §IV.C tail equals the frozen per-row implementations bitwise.

:func:`repro.trust.binarize_top_k` and :func:`repro.trust.generousness`
run one numpy pass over a matrix's flat keys; the oracles in
:mod:`repro.perf.reference` walk one ``row()`` per user.  Both must give
the same matrices (keys and values) and the same ``{user: k}`` dicts, in
the same order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import paper_profile, run_pipeline
from repro.matrix import UserPairMatrix
from repro.perf.reference import reference_binarize_top_k, reference_generousness
from repro.trust import binarize_top_k, generousness

#: fractions whose product with a small row size lands exactly on ``x.5``
HALVES = [0.5, 0.25, 0.125, 0.375, 0.625, 1 / 6, 0.3, 0.1]
#: 0 and 1 as ints and floats, halves, thirds and arbitrary fractions
FRACTIONS = st.one_of(
    st.sampled_from([0, 1, 0.0, 1.0, 1 / 3, 2 / 3, *HALVES]),
    st.floats(0.0, 1.0),
)


@st.composite
def matrices(draw, users=None):
    """A small matrix whose values come from 3-4 levels (ties are common)."""
    if users is None:
        users = [f"u{i}" for i in range(draw(st.integers(0, 7)))]
    matrix = UserPairMatrix(users)
    levels = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(-1.0, 1.0)),
            min_size=3,
            max_size=4,
        )
    )
    pairs = [(s, t) for s in users for t in users]
    stored = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    for source, target in stored:
        matrix.set(source, target, draw(st.sampled_from(levels)))
    return matrix


@st.composite
def binarize_cases(draw):
    matrix = draw(matrices())
    users = list(matrix.users)
    # on-axis users (some left out, so they take default_k) and users off it
    named = draw(st.lists(st.sampled_from(users), unique=True)) if users else []
    named += draw(st.lists(st.sampled_from(["ghost", "u99"]), unique=True))
    k_by_user = {user: draw(FRACTIONS) for user in named}
    default_k = draw(FRACTIONS)
    return matrix, k_by_user, default_k


def assert_binarize_matches(matrix, k_by_user, default_k=0.0):
    expected = reference_binarize_top_k(matrix, k_by_user, default_k=default_k)
    actual = binarize_top_k(matrix, k_by_user, default_k=default_k)
    assert actual == expected
    assert actual.values().tobytes() == expected.values().tobytes()


class TestBinarizeMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(binarize_cases())
    def test_random_matrices(self, case):
        matrix, k_by_user, default_k = case
        assert_binarize_matches(matrix, k_by_user, default_k)

    @pytest.mark.parametrize("size", range(1, 9))
    @pytest.mark.parametrize("k", HALVES)
    def test_cut_on_a_half(self, size, k):
        users = ["a"] + [f"t{j}" for j in range(size)]
        matrix = UserPairMatrix(users)
        for j in range(size):
            matrix.set("a", f"t{j}", [0.2, 0.5, 0.5][j % 3])
        assert_binarize_matches(matrix, {"a": k})

    @pytest.mark.parametrize(
        "k,size,kept", [(15 / 22, 11, 8), (15 / 26, 13, 8), (15 / 26, 39, 23)]
    )
    def test_cut_just_below_a_half(self, k, size, kept):
        # k * size is 7.5 or 22.5 minus float noise; the tolerance rounds it up
        users = ["a"] + [f"t{j}" for j in range(size)]
        matrix = UserPairMatrix(users)
        for j in range(size):
            matrix.set("a", f"t{j}", 0.5)
        assert_binarize_matches(matrix, {"a": k})
        assert binarize_top_k(matrix, {"a": k}).num_entries() == kept

    def test_empty_matrix(self):
        assert_binarize_matches(UserPairMatrix(["a", "b"]), {"a": 1.0}, default_k=1.0)
        assert_binarize_matches(UserPairMatrix([]), {"a": 0.5}, default_k=0.5)

    def test_empty_rows_and_stored_zeros(self):
        matrix = UserPairMatrix(["a", "b", "c", "d"])
        matrix.set("b", "a", 0.0)
        matrix.set("b", "c", 0.0)
        matrix.set("b", "d", 0.4)
        matrix.set("d", "a", 0.0)
        for k in (0, 1, 0.5, 1 / 3, 2 / 3):
            assert_binarize_matches(matrix, {"a": k, "b": k, "c": 1.0, "d": k})
            assert_binarize_matches(matrix, {}, default_k=k)

    def test_users_off_the_axis_are_ignored(self):
        matrix = UserPairMatrix(["a", "b"])
        matrix.set("a", "b", 0.3)
        assert_binarize_matches(matrix, {"zed": 1.0}, default_k=0.0)
        assert binarize_top_k(matrix, {"zed": 1.0}).num_entries() == 0


class TestGenerousnessMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_matrices(self, data):
        users = [f"u{i}" for i in range(data.draw(st.integers(0, 7)))]
        connections = data.draw(matrices(users))
        ground_truth = data.draw(matrices(users))
        expected = reference_generousness(connections, ground_truth)
        actual = generousness(connections, ground_truth)
        assert list(actual.items()) == list(expected.items())


class TestPipelineMatchesOracle:
    def test_binary_matrices_at_2000_users(self):
        artifacts = run_pipeline(paper_profile(2000), 7)
        k_by_user = reference_generousness(artifacts.connections, artifacts.ground_truth)
        assert list(artifacts.generousness_by_user.items()) == list(k_by_user.items())
        assert artifacts.derived_binary == reference_binarize_top_k(
            artifacts.derived, k_by_user
        )
        assert artifacts.baseline_binary == reference_binarize_top_k(
            artifacts.baseline, k_by_user
        )
