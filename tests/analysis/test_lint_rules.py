"""Unit tests for the invariant linter: each rule firing and passing.

Every rule is exercised through :func:`repro.analysis.lint_source` on a
minimal bad source (the rule fires) and its fixed counterpart (no
findings), plus the waiver and scope mechanics the CI gate relies on.
"""

import pathlib
import textwrap

import pytest

from repro.analysis import RULES, lint_source
from repro.analysis.lint import lint_paths, main

TYPED_PATH = "src/repro/matrix/example.py"


def rules_of(findings):
    return [f.rule for f in findings]


def lint(source, path="<string>"):
    return lint_source(textwrap.dedent(source), path)


# --------------------------------------------------------------------------- R1


class TestR1CacheInvalidation:
    BAD = """
        class UserPairMatrix:
            def set(self, key, value):
                self._store[key] = value
        """

    def test_fires_on_mutator_without_invalidation(self):
        findings = lint(self.BAD)
        assert rules_of(findings) == ["R1"]
        assert "UserPairMatrix.set()" in findings[0].message

    def test_passes_when_hook_is_called(self):
        findings = lint(
            """
            class UserPairMatrix:
                def set(self, key, value):
                    self._store[key] = value
                    self._invalidate()
            """
        )
        assert findings == []

    def test_passes_when_cache_attr_is_assigned(self):
        findings = lint(
            """
            class UserPairMatrix:
                def accumulate(self, key, value):
                    self._vals[key] += value
                    self._csr = None
            """
        )
        assert findings == []

    def test_community_uses_its_own_protocol(self):
        bad = lint(
            """
            class Community:
                def add_user(self, user):
                    self._rows.append(user)
            """
        )
        assert rules_of(bad) == ["R1", "R7"]
        good = lint(
            """
            class Community:
                def add_user(self, user):
                    self._rows.append(user)
                    self._record("user", user_id=user)
            """
        )
        assert good == []

    def test_private_methods_are_exempt(self):
        findings = lint(
            """
            class UserPairMatrix:
                def _flush(self):
                    self._store = {}
            """
        )
        assert findings == []

    def test_mutating_call_on_private_state_counts_as_write(self):
        findings = lint(
            """
            class Community:
                def add_trust(self, statement):
                    self._db.insert("trust", statement)
            """
        )
        assert rules_of(findings) == ["R1", "R7"]

    def test_read_only_methods_are_clean(self):
        findings = lint(
            """
            class UserPairMatrix:
                def get(self, key):
                    return self._store[key]
            """
        )
        assert findings == []

    def test_other_classes_are_not_checked(self):
        findings = lint(
            """
            class SomethingElse:
                def set(self, key, value):
                    self._store[key] = value
            """
        )
        assert findings == []


# --------------------------------------------------------------------------- R2


class TestR2HotPathColumnar:
    @pytest.mark.parametrize(
        "call",
        ["entries", "support", "row", "iter_ratings", "iter_reviews",
         "direct_connections", "rating_triples"],
    )
    def test_fires_on_each_slow_call(self, call):
        findings = lint(
            f"""
            # repro: hot-path
            def f(m):
                return list(m.{call}())
            """
        )
        assert rules_of(findings) == ["R2"]
        assert f".{call}()" in findings[0].message

    def test_row_lookup_points_at_the_flat_key_apis(self):
        findings = lint(
            """
            # repro: hot-path
            def f(m, users):
                return [len(m.row(u)) for u in users]
            """
        )
        assert rules_of(findings) == ["R2"]
        assert "entries_arrays()" in findings[0].message
        assert "support_keys()" in findings[0].message

    def test_silent_without_hot_path_marker(self):
        findings = lint(
            """
            def f(m):
                return list(m.entries())
            """
        )
        assert findings == []

    def test_columnar_equivalents_are_clean(self):
        findings = lint(
            """
            # repro: hot-path
            def f(m, columns):
                rows, cols, vals = m.entries_arrays()
                return columns.direct_connection_arrays()
            """
        )
        assert findings == []


# --------------------------------------------------------------------------- R3


class TestR3SetDrivenAccumulation:
    def test_fires_on_aug_assign_in_set_loop(self):
        findings = lint(
            """
            def f(pairs, weight):
                total = 0.0
                chosen = set(pairs)
                for p in chosen:
                    total += weight[p]
                return total
            """
        )
        assert rules_of(findings) == ["R3"]

    def test_fires_on_sum_over_set_generator(self):
        findings = lint(
            """
            def f(keys, values):
                return sum(values[k] for k in set(keys))
            """
        )
        assert rules_of(findings) == ["R3"]

    def test_fires_on_sum_of_set_returning_call(self):
        findings = lint(
            """
            def f(matrix):
                shared = matrix.intersect_support(matrix)
                return sum(shared)
            """
        )
        assert rules_of(findings) == ["R3"]

    def test_sorted_iteration_is_clean(self):
        findings = lint(
            """
            def f(pairs, weight):
                total = 0.0
                for p in sorted(set(pairs)):
                    total += weight[p]
                return total
            """
        )
        assert findings == []

    def test_integer_counting_is_exempt(self):
        findings = lint(
            """
            def f(pairs):
                count = 0
                for p in set(pairs):
                    count += 1
                return count
            """
        )
        assert findings == []

    def test_only_applies_to_numeric_modules(self):
        source = """
            def f(pairs, weight):
                total = 0.0
                for p in set(pairs):
                    total += weight[p]
                return total
            """
        assert rules_of(lint(source, "src/repro/trust/x.py")) == ["R3"]
        assert lint(source, "src/repro/datasets/x.py") == []


# --------------------------------------------------------------------------- R4


class TestR4WriteOnceColumns:
    def test_fires_on_assignment_outside_init(self):
        findings = lint(
            """
            class CommunityColumns:
                def __init__(self):
                    self.rating_values = None

                def refresh(self, values):
                    self.rating_values = values
            """
        )
        assert rules_of(findings) == ["R4"]
        assert "rating_values" in findings[0].message

    def test_underscore_memos_are_allowed(self):
        findings = lint(
            """
            class CommunityColumns:
                def writing_counts_matrix(self):
                    self._writing_counts = 1
                    return self._writing_counts
            """
        )
        assert findings == []

    def test_fires_on_consumer_attribute_write(self):
        findings = lint(
            """
            def f(community, values):
                cols = community.columns()
                cols.rating_values = values
            """
        )
        assert rules_of(findings) == ["R4"]

    def test_fires_on_consumer_element_write(self):
        findings = lint(
            """
            def f(community):
                cols = community.columns()
                cols.srt_values[0] = 1.0
            """
        )
        assert rules_of(findings) == ["R4"]

    def test_reading_columns_is_clean(self):
        findings = lint(
            """
            def f(community):
                cols = community.columns()
                return cols.srt_values.sum()
            """
        )
        assert findings == []


# --------------------------------------------------------------------------- R5


class TestR5StrictAnnotations:
    def test_fires_on_unannotated_function_in_typed_package(self):
        findings = lint(
            """
            def f(x, y):
                return x + y
            """,
            TYPED_PATH,
        )
        assert rules_of(findings) == ["R5"]
        assert "x, y, return" in findings[0].message

    def test_self_and_cls_are_exempt(self):
        findings = lint(
            """
            class Thing:
                def method(self, x: int) -> int:
                    return x

                @classmethod
                def build(cls) -> "Thing":
                    return cls()
            """,
            TYPED_PATH,
        )
        assert findings == []

    def test_star_args_need_annotations(self):
        findings = lint(
            """
            def f(*args, **kwargs) -> None:
                pass
            """,
            TYPED_PATH,
        )
        assert rules_of(findings) == ["R5"]

    def test_fully_annotated_is_clean(self):
        findings = lint(
            """
            def f(x: int, *, flag: bool = False) -> int:
                return x if flag else -x
            """,
            TYPED_PATH,
        )
        assert findings == []

    def test_untyped_packages_are_not_checked(self):
        source = """
            def f(x):
                return x
            """
        assert lint(source, "src/repro/datasets/x.py") == []
        assert lint(source) == []

    def test_obs_package_is_strict_typed(self):
        findings = lint(
            """
            def f(x):
                return x
            """,
            "src/repro/obs/example.py",
        )
        assert rules_of(findings) == ["R5"]


# --------------------------------------------------------------------------- R6


class TestR6ContextManagedSpans:
    def test_fires_on_bare_span_call(self):
        findings = lint(
            """
            def f(obs):
                handle = obs.span("step1.fit")
                work()
            """
        )
        assert rules_of(findings) == ["R6"]
        assert "with-item" in findings[0].message

    def test_fires_on_bare_module_level_span(self):
        findings = lint(
            """
            def f():
                span("step1.fit")
            """
        )
        assert rules_of(findings) == ["R6"]

    def test_with_statement_is_clean(self):
        findings = lint(
            """
            def f(obs):
                with obs.span("step1.fit", mode="batched"):
                    work()
            """
        )
        assert findings == []

    def test_with_as_target_is_clean(self):
        findings = lint(
            """
            def f(obs):
                with obs.span("step1.fit") as record:
                    return record
            """
        )
        assert findings == []

    def test_enter_context_is_clean(self):
        findings = lint(
            """
            def f(obs, stack):
                stack.enter_context(obs.span("step1.fit"))
            """
        )
        assert findings == []

    def test_fires_on_start_stop_span(self):
        findings = lint(
            """
            def f(obs):
                obs.start_span("step1.fit")
                work()
                obs.stop_span()
            """
        )
        assert rules_of(findings) == ["R6", "R6"]
        assert "start_span" in findings[0].message

    def test_waiver_applies(self):
        findings = lint(
            """
            def f(obs):
                return obs.span("step1.fit")  # repro: allow(R6): factory shim
            """
        )
        assert findings == []


# --------------------------------------------------------------------------- R7


class TestR7MutatorsEmitDeltas:
    def test_fires_when_mutator_only_invalidates(self):
        findings = lint(
            """
            class Community:
                def add_user(self, user):
                    self._rows.append(user)
                    self._mutated()
            """
        )
        assert rules_of(findings) == ["R7"]
        assert "self._record" in findings[0].message

    def test_passes_when_mutator_records_a_delta(self):
        findings = lint(
            """
            class Community:
                def add_user(self, user):
                    self._rows.append(user)
                    self._record("user", user_id=user)
            """
        )
        assert findings == []

    def test_read_only_methods_are_exempt(self):
        findings = lint(
            """
            class Community:
                def user_ids(self):
                    return list(self._rows)
            """
        )
        assert findings == []

    def test_private_helpers_are_exempt(self):
        findings = lint(
            """
            class Community:
                def _rebuild(self):
                    self._rows.append(None)
                    self._mutated()
            """
        )
        assert findings == []

    def test_other_classes_are_exempt(self):
        findings = lint(
            """
            class UserPairMatrix:
                def set(self, key, value):
                    self._store[key] = value
                    self._invalidate()
            """
        )
        assert findings == []

    def test_waivable(self):
        findings = lint(
            """
            class Community:
                def bulk_import(self, rows):  # repro: allow(R7): log elsewhere
                    self._rows.extend(rows)
                    self._mutated()
            """
        )
        assert findings == []

    def test_real_community_module_is_clean(self):
        source = pathlib.Path("src/repro/community/community.py").read_text()
        findings = lint_source(source, "src/repro/community/community.py")
        assert findings == []


# ----------------------------------------------------------------- waivers etc.


class TestWaivers:
    def test_same_line_waiver(self):
        findings = lint(
            """
            # repro: hot-path
            def f(m):
                return list(m.entries())  # repro: allow(R2): test waiver
            """
        )
        assert findings == []

    def test_line_above_waiver(self):
        findings = lint(
            """
            # repro: hot-path
            def f(m):
                # repro: allow(R2): test waiver
                return list(m.entries())
            """
        )
        assert findings == []

    def test_waiver_two_lines_above_does_not_apply(self):
        findings = lint(
            """
            # repro: hot-path
            def f(m):
                # repro: allow(R2): too far away
                pass
                return list(m.entries())
            """
        )
        assert rules_of(findings) == ["R2"]

    def test_waiver_is_rule_specific(self):
        findings = lint(
            """
            # repro: hot-path
            def f(m):
                return list(m.entries())  # repro: allow(R3): wrong rule
            """
        )
        assert rules_of(findings) == ["R2"]

    def test_multiple_rules_in_one_waiver(self):
        findings = lint(
            """
            # repro: hot-path
            def f(pairs, m):
                # repro: allow(R2, R3): both at once
                return sum(x for x in set(m.entries()))
            """
        )
        assert findings == []


class TestEntryPoints:
    def test_syntax_error_reported_as_finding(self):
        findings = lint_source("def f(:\n")
        assert rules_of(findings) == ["E0"]

    def test_findings_render_clickable(self):
        findings = lint(
            """
            # repro: hot-path
            def f(m):
                return list(m.entries())
            """,
            "src/repro/trust/x.py",
        )
        rendered = findings[0].render()
        assert rendered.startswith("src/repro/trust/x.py:")
        assert " R2 " in rendered

    def test_lint_paths_walks_directories(self, tmp_path):
        bad = tmp_path / "pkg" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("total = sum(x for x in set(range(3)))\n")
        (tmp_path / "pkg" / "clean.py").write_text("VALUE = 1\n")
        findings = lint_paths([str(tmp_path)])
        assert rules_of(findings) == ["R3"]
        assert findings[0].path == str(bad)

    def test_main_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("total = sum(x for x in set(range(3)))\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr()
        assert "R3" in out.out
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert main([str(clean)]) == 0

    def test_main_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_repo_source_tree_is_clean(self):
        # the self-check the CI gate runs; every finding must be fixed or
        # carry an explicit waiver
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        assert [f.render() for f in lint_paths([str(src)])] == []
