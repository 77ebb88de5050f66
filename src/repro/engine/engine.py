"""The staged incremental engine: columns -> E -> A -> T-hat -> propagation.

:class:`Engine` owns the pipeline's staged artifacts and keeps them in
sync with a mutating :class:`repro.community.Community` by consuming its
:class:`repro.community.ChangeLog`.  Each :meth:`Engine.update` advances a
cursor over the log and recomputes only what the new deltas invalidate:

- **columns** -- the community's own cache splices the appended records
  into its segments;
- **E** (Step 1) -- :class:`repro.reputation.IncrementalExpertise`
  re-solves only the categories the deltas touched;
- **A** (Step 2) -- rebuilt from the columnar counts (cheap, array-only);
- **T-hat** (Step 3) -- re-derived only on the changed region
  ``(changed A rows x all) | (all x changed E rows)`` and patched into the
  cached matrix (:meth:`repro.trust.TrustDeriver.derive_region`);
- **propagation** -- reused outright when ``T-hat`` did not move, rerun
  otherwise (optionally warm-started in approximate mode).

The contract, property-tested in ``tests/engine``: in the default exact
mode every update's artifacts are **bitwise equal** to a cold build on a
fresh replica of the same records.  That works because eq. 5 reads exactly
``A[i, :]`` and ``E[j, :]`` per entry, the derive kernel's per-element
reduction order is shape-independent, and the per-category Step-1 solves
are deterministic -- see ``repro/trust/derive.py`` for the kernel notes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.affinity import AffinityConfig, AffinityEstimator
from repro.common.arrays import FloatArray, IntArray
from repro.community import Community
from repro.matrix import UserCategoryMatrix, UserPairMatrix
from repro.propagation import PropagationScores, eigen_trust
from repro.reputation import ExpertiseResult, RiggsConfig
from repro.reputation.estimator import ExpertiseEstimator
from repro.reputation.incremental import IncrementalExpertise
from repro.trust import TrustDeriver

__all__ = [
    "Engine",
    "EngineArtifacts",
    "StageStamps",
    "UpdateStats",
    "cold_artifacts",
]


@dataclass(frozen=True)
class StageStamps:
    """Change-log epoch at which each staged artifact was last recomputed.

    A stage that an update *reused* keeps its previous stamp, so
    ``stamps.derived < stamps.columns`` reads as "the cached ``T-hat`` was
    proven still valid at the newer epoch without being touched".
    """

    columns: int
    expertise: int
    affiliation: int
    derived: int
    propagation: int


@dataclass(frozen=True)
class UpdateStats:
    """What one :meth:`Engine.update` actually did."""

    deltas_applied: int
    categories_resolved: int
    categories_skipped: int
    pairs_rederived: int
    pairs_reused: int
    propagation_rerun: bool
    iterations_saved: int


@dataclass(frozen=True)
class EngineArtifacts:
    """The staged pipeline outputs, all consistent at ``stamps``."""

    expertise_result: ExpertiseResult
    affiliation: UserCategoryMatrix
    derived: UserPairMatrix
    scores: PropagationScores
    stamps: StageStamps

    @property
    def expertise(self) -> UserCategoryMatrix:
        return self.expertise_result.expertise

    def differences(self, other: "EngineArtifacts") -> list[str]:
        """Names of artifacts that are not bitwise identical to ``other``'s."""
        diffs: list[str] = []
        if self.expertise != other.expertise:
            diffs.append("expertise")
        if self.affiliation != other.affiliation:
            diffs.append("affiliation")
        if self.derived != other.derived:
            diffs.append("derived")
        if self.scores.users != other.scores.users or not np.array_equal(
            self.scores.scores_array(), other.scores.scores_array()
        ):
            diffs.append("scores")
        return diffs

    def bitwise_equal(self, other: "EngineArtifacts") -> bool:
        """True when E, A, T-hat and the propagation scores all match."""
        return not self.differences(other)


def _changed_rows(old: FloatArray, new: FloatArray) -> IntArray:
    """Row positions of ``new`` that differ from ``old``, zero-padded.

    ``old`` may be smaller on either axis (append-only growth); absent
    entries compare as 0, matching what a user/category with no activity
    contributes.
    """
    if old.shape == new.shape:
        padded = old
    else:
        padded = np.zeros_like(new)
        padded[: old.shape[0], : old.shape[1]] = old
    return np.nonzero((padded != new).any(axis=1))[0].astype(np.int64)


class Engine:
    """Keeps the full pipeline synchronous with a mutating community.

    Usage::

        engine = Engine(community)
        artifacts = engine.update()      # cold build
        community.add_rating(...)        # mutators log deltas
        artifacts = engine.update()      # incremental: only what changed

    Parameters
    ----------
    exact:
        ``True`` (default): every update is bitwise equal to a cold build
        -- dirty Step-1 categories are solved cold and propagation reruns
        cold whenever ``T-hat`` moved.  ``False``: Step-1 and propagation
        warm-start from the previous state, trading bitwise identity (the
        results still agree to solver tolerance) for fewer sweeps.
    compact_log:
        ``True`` (default): after each update the engine compacts the
        community's change log up to the epoch it just consumed -- its
        own subscribers (the columns cache and the Step-1 tracker) are
        guaranteed caught up, so a long rating stream does not accumulate
        deltas without bound.  Turn off when other consumers hold their
        own cursors on the same log.
    """

    def __init__(
        self,
        community: Community,
        *,
        riggs_config: RiggsConfig | None = None,
        affinity_config: AffinityConfig | None = None,
        deriver: TrustDeriver | None = None,
        unrated_policy: str = "exclude",
        alpha: float = 0.15,
        tolerance: float = 1e-10,
        max_iterations: int = 1000,
        pretrust: dict[str, float] | None = None,
        exact: bool = True,
        compact_log: bool = True,
    ) -> None:
        self._community = community
        self._affinity = AffinityEstimator(affinity_config)
        self._deriver = deriver or TrustDeriver()
        self._alpha = alpha
        self._tolerance = tolerance
        self._max_iterations = max_iterations
        self._pretrust = pretrust
        self._exact = exact
        self._compact_log = compact_log
        self._tracker = IncrementalExpertise(
            community,
            riggs_config,
            unrated_policy=unrated_policy,
            warm_start=not exact,
        )
        self._cursor = 0
        self._artifacts: EngineArtifacts | None = None
        self._last_stats: UpdateStats | None = None

    # ------------------------------------------------------------------ status

    @property
    def community(self) -> Community:
        return self._community

    @property
    def artifacts(self) -> EngineArtifacts | None:
        """The artifacts of the last :meth:`update` (``None`` before any)."""
        return self._artifacts

    @property
    def last_stats(self) -> UpdateStats | None:
        """What the last :meth:`update` recomputed vs reused."""
        return self._last_stats

    # ------------------------------------------------------------------ update

    def update(self) -> EngineArtifacts:
        """Bring every staged artifact up to the community's current epoch."""
        log = self._community.change_log
        epoch = log.epoch
        deltas_applied = epoch - self._cursor
        with obs.span("engine.update", epoch=epoch, deltas=deltas_applied):
            obs.add("engine.deltas_applied", deltas_applied)
            self._cursor = epoch

            self._community.columns()  # splice the appended records
            expertise_result = self._tracker.refresh()
            resolved = len(self._tracker.last_resolved)
            skipped = len(expertise_result.expertise.categories) - resolved
            affiliation = self._affinity.fit(self._community)

            previous = self._artifacts
            if previous is None:
                artifacts, stats = self._cold_stages(
                    expertise_result, affiliation, epoch, deltas_applied
                )
            else:
                artifacts, stats = self._incremental_stages(
                    previous, expertise_result, affiliation, epoch, deltas_applied
                )
            stats = replace(
                stats, categories_resolved=resolved, categories_skipped=skipped
            )
            obs.add("engine.derive.pairs_rederived", stats.pairs_rederived)
            obs.add("engine.derive.pairs_reused", stats.pairs_reused)
            obs.add("engine.propagation.iterations_saved", stats.iterations_saved)
            self._artifacts = artifacts
            self._last_stats = stats
            if self._compact_log:
                # every engine subscriber (columns cache, Step-1 tracker,
                # our own cursor) is now at `epoch`: the consumed prefix
                # can be forgotten
                dropped = log.compact(epoch)
                obs.add("engine.log.deltas_compacted", dropped)
            return artifacts

    # ------------------------------------------------------------------ stages

    def _cold_stages(
        self,
        expertise_result: ExpertiseResult,
        affiliation: UserCategoryMatrix,
        epoch: int,
        deltas_applied: int,
    ) -> tuple[EngineArtifacts, UpdateStats]:
        derived = self._deriver.derive(affiliation, expertise_result.expertise)
        scores = self._propagate(derived, initial=None)
        stamps = StageStamps(
            columns=epoch,
            expertise=epoch,
            affiliation=epoch,
            derived=epoch,
            propagation=epoch,
        )
        stats = UpdateStats(
            deltas_applied=deltas_applied,
            categories_resolved=0,
            categories_skipped=0,
            pairs_rederived=derived.num_entries(),
            pairs_reused=0,
            propagation_rerun=True,
            iterations_saved=0,
        )
        return EngineArtifacts(expertise_result, affiliation, derived, scores, stamps), stats

    def _incremental_stages(
        self,
        previous: EngineArtifacts,
        expertise_result: ExpertiseResult,
        affiliation: UserCategoryMatrix,
        epoch: int,
        deltas_applied: int,
    ) -> tuple[EngineArtifacts, UpdateStats]:
        expertise = expertise_result.expertise
        old_a = previous.affiliation.values_view()
        new_a = affiliation.values_view()
        grew_categories = old_a.shape[1] != new_a.shape[1]
        grew_users = old_a.shape[0] != new_a.shape[0]

        if grew_categories:
            # a new category extends every reduction in eq. 5: re-derive
            # in full rather than reason about padded accumulation orders
            derived = self._deriver.derive(affiliation, expertise)
            derived_changed = True
            pairs_rederived = derived.num_entries()
            pairs_reused = 0
        else:
            rows = _changed_rows(old_a, new_a)
            cols = _changed_rows(
                previous.expertise.values_view(), expertise.values_view()
            )
            n = len(affiliation.users)
            if rows.size == 0 and cols.size == 0 and not grew_users:
                derived = previous.derived
                derived_changed = False
                pairs_rederived = 0
                pairs_reused = derived.num_entries()
            elif (rows.size + cols.size) * 2 >= n:
                # the changed region covers most of the matrix: a plain full
                # derive is cheaper than region + patch and equally bitwise
                derived = self._deriver.derive(affiliation, expertise)
                derived_changed = True
                pairs_rederived = derived.num_entries()
                pairs_reused = 0
            else:
                derived, pairs_reused = self._patched_derive(
                    previous.derived, affiliation, expertise, rows=rows, cols=cols
                )
                derived_changed = True
                pairs_rederived = derived.num_entries() - pairs_reused

        prev_iterations = previous.scores.iterations or 0
        if not derived_changed:
            scores = previous.scores
            propagation_rerun = False
            iterations_saved = prev_iterations
        else:
            initial: FloatArray | None = None
            if not self._exact:
                prev_scores = previous.scores.scores_array()
                initial = np.zeros(len(affiliation.users))
                initial[: prev_scores.size] = prev_scores
            scores = self._propagate(derived, initial=initial)
            propagation_rerun = True
            iterations_saved = (
                max(0, prev_iterations - (scores.iterations or 0))
                if initial is not None
                else 0
            )

        stamps = StageStamps(
            columns=epoch,
            expertise=epoch
            if self._tracker.last_resolved or grew_users or grew_categories
            else previous.stamps.expertise,
            affiliation=epoch,
            derived=epoch if derived_changed else previous.stamps.derived,
            propagation=epoch if propagation_rerun else previous.stamps.propagation,
        )
        stats = UpdateStats(
            deltas_applied=deltas_applied,
            categories_resolved=0,
            categories_skipped=0,
            pairs_rederived=pairs_rederived,
            pairs_reused=pairs_reused,
            propagation_rerun=propagation_rerun,
            iterations_saved=iterations_saved,
        )
        return EngineArtifacts(expertise_result, affiliation, derived, scores, stamps), stats

    def _patched_derive(
        self,
        previous_derived: UserPairMatrix,
        affiliation: UserCategoryMatrix,
        expertise: UserCategoryMatrix,
        *,
        rows: IntArray,
        cols: IntArray,
    ) -> tuple[UserPairMatrix, int]:
        """Recompute the changed region and merge it into the cached entries.

        Delegates the merge to :meth:`repro.matrix.UserPairMatrix.patched`,
        which assembles the result with one O(nnz) masked scatter instead of
        the O(nnz log nnz) consolidation sort.  Returns the patched matrix
        and the number of kept (reused) entries.
        """
        region = self._deriver.derive_region(
            affiliation, expertise, rows=rows, cols=cols
        )
        with obs.span("engine.patch"):
            return previous_derived.patched(
                affiliation.users, region, rows=rows, cols=cols
            )

    def _propagate(
        self, derived: UserPairMatrix, *, initial: FloatArray | None
    ) -> PropagationScores:
        return eigen_trust(
            derived,
            pretrust=self._pretrust,
            alpha=self._alpha,
            tolerance=self._tolerance,
            max_iterations=self._max_iterations,
            initial=initial,
        )


def cold_artifacts(
    community: Community,
    *,
    riggs_config: RiggsConfig | None = None,
    affinity_config: AffinityConfig | None = None,
    deriver: TrustDeriver | None = None,
    unrated_policy: str = "exclude",
    alpha: float = 0.15,
    tolerance: float = 1e-10,
    max_iterations: int = 1000,
    pretrust: dict[str, float] | None = None,
) -> EngineArtifacts:
    """One cold, cache-free pipeline pass -- the engine's reference output.

    Deliberately built from the batch estimators rather than the engine's
    own caches and patches.  Step 1 runs the same solver the engine's
    tracker runs (:func:`repro.reputation.solve_all_categories`), so a
    comparison against :meth:`Engine.update` does not check that solver;
    :func:`repro.perf.reference.reference_fit_expertise` is the
    independent oracle for it.
    """
    expertise_result = ExpertiseEstimator(
        riggs_config, unrated_policy=unrated_policy
    ).fit(community)
    affiliation = AffinityEstimator(affinity_config).fit(community)
    trust_deriver = deriver or TrustDeriver()
    derived = trust_deriver.derive(affiliation, expertise_result.expertise)
    scores = eigen_trust(
        derived,
        pretrust=pretrust,
        alpha=alpha,
        tolerance=tolerance,
        max_iterations=max_iterations,
    )
    epoch = community.change_log.epoch
    stamps = StageStamps(
        columns=epoch,
        expertise=epoch,
        affiliation=epoch,
        derived=epoch,
        propagation=epoch,
    )
    return EngineArtifacts(expertise_result, affiliation, derived, scores, stamps)
