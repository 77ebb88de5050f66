"""The :class:`Community` aggregate: storage + integrity + typed queries.

This is the one object the reputation/affinity/trust layers consume.  It
exposes exactly the access patterns the paper's formulas need:

- reviews written per (user, category) -- eq. 3 and eq. 4's ``a^w``;
- ratings given per (user, category) -- eq. 2's ``n_u`` and eq. 4's ``a^r``;
- the ratings received by each review, with rater identity -- eq. 1;
- the direct-connection relation ``R`` (*i* rated some review of *j*) and
  per-pair rating averages -- the paper's baseline ``B`` (§IV.C);
- the explicit web of trust ``T`` when available (ground truth, §IV).

Records are kept as the frozen model objects, one insertion-ordered dict
per entity keyed by its primary key.  Every entity is append-only, so the
cached :class:`CommunityColumns` snapshot is current exactly when its own
counts match the community's, and the records it lacks are the tails past
those counts.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, TypeVar

from repro import obs
from repro.common.collector import paused_gc
from repro.common.errors import IntegrityError, ValidationError
from repro.community.columnar import CommunityColumns
from repro.community.deltas import ChangeLog, DeltaKind
from repro.community.model import (
    Category,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
    User,
)

__all__ = ["Community"]

_K = TypeVar("_K")
_V = TypeVar("_V")


def _tail(records: dict[_K, _V], start: int) -> list[_V]:
    """The values of ``records`` past the first ``start``, in insertion order.

    Walks the dict from its end, so the cost is the tail's length, not the
    dict's.
    """
    tail = list(islice(reversed(records.values()), len(records) - start))
    tail.reverse()
    return tail


class Community:
    """An Epinions-style review community.

    All writes go through typed ``add_*`` methods that enforce referential
    integrity and the domain rules.  Each method runs every check before
    its first write, so a rejected call changes nothing.
    """

    def __init__(self, name: str = "community") -> None:
        self.name = name
        self._version = 0
        self._log = ChangeLog()
        self._columns: CommunityColumns | None = None
        self._users: dict[str, User] = {}
        self._categories: dict[str, Category] = {}
        self._objects: dict[str, ReviewedObject] = {}
        # each review with the category it inherits from its object
        self._reviews: dict[str, tuple[Review, str]] = {}
        self._ratings: dict[tuple[str, str], ReviewRating] = {}
        self._trust: dict[tuple[str, str], TrustStatement] = {}
        # one review per (writer, object)
        self._reviewed: set[tuple[str, str]] = set()
        # per-key lists kept at insert time, so the per-category, -review,
        # -writer and -rater queries cost O(result)
        self._category_objects: dict[str, list[str]] = {}
        self._writer_reviews: dict[str, list[str]] = {}
        self._review_ratings: dict[str, list[ReviewRating]] = {}
        self._rater_ratings: dict[str, list[ReviewRating]] = {}

    # ------------------------------------------------------------------ writes

    @property
    def version(self) -> int:
        """Mutation counter; bumped by every successful ``add_*`` call."""
        return self._version

    @property
    def change_log(self) -> ChangeLog:
        """The per-community delta log every mutator appends to."""
        return self._log

    def _mutated(self) -> None:
        self._version += 1

    def _record(
        self,
        kind: DeltaKind,
        *,
        user_id: str | None = None,
        category_id: str | None = None,
        target_id: str | None = None,
    ) -> None:
        """Publish one delta and bump the version (the R1/R7 write hook)."""
        self._log.record(
            kind, user_id=user_id, category_id=category_id, target_id=target_id
        )
        self._mutated()

    def add_user(self, user: User | str, name: str = "") -> User:
        """Register a user (accepts a :class:`User` or a bare id)."""
        if isinstance(user, str):
            user = User(user_id=user, name=name)
        if user.user_id in self._users:
            raise IntegrityError(f"duplicate primary key: user {user.user_id!r}")
        self._users[user.user_id] = user
        self._record("user", user_id=user.user_id)
        return user

    def add_category(self, category: Category | str, name: str = "") -> Category:
        """Register a category (accepts a :class:`Category` or a bare id)."""
        if isinstance(category, str):
            category = Category(category_id=category, name=name)
        if category.category_id in self._categories:
            raise IntegrityError(
                f"duplicate primary key: category {category.category_id!r}"
            )
        self._categories[category.category_id] = category
        self._category_objects[category.category_id] = []
        self._record("category", category_id=category.category_id)
        return category

    def add_object(self, obj: ReviewedObject) -> ReviewedObject:
        """Register a reviewable object under its category."""
        if obj.object_id in self._objects:
            raise IntegrityError(f"duplicate primary key: object {obj.object_id!r}")
        if obj.category_id not in self._categories:
            raise IntegrityError(
                f"object {obj.object_id!r} references unknown category "
                f"{obj.category_id!r}"
            )
        self._objects[obj.object_id] = obj
        self._category_objects[obj.category_id].append(obj.object_id)
        self._record("object", category_id=obj.category_id, target_id=obj.object_id)
        return obj

    def add_review(self, review: Review) -> Review:
        """Record a review; its category is inherited from the object.

        Raises :class:`IntegrityError` when the writer already reviewed the
        object (the paper: "a user is often allowed to write only one review
        on an object").
        """
        obj = self._objects.get(review.object_id)
        if obj is None:
            raise IntegrityError(f"review references unknown object {review.object_id!r}")
        if review.review_id in self._reviews:
            raise IntegrityError(f"duplicate primary key: review {review.review_id!r}")
        if review.writer_id not in self._users:
            raise IntegrityError(
                f"review {review.review_id!r} references unknown writer "
                f"{review.writer_id!r}"
            )
        written = (review.writer_id, review.object_id)
        if written in self._reviewed:
            raise IntegrityError(
                f"unique (writer, object) violated: {review.writer_id!r} already "
                f"reviewed {review.object_id!r}"
            )
        self._reviews[review.review_id] = (review, obj.category_id)
        self._reviewed.add(written)
        self._writer_reviews.setdefault(review.writer_id, []).append(review.review_id)
        self._record(
            "review",
            user_id=review.writer_id,
            category_id=obj.category_id,
            target_id=review.review_id,
        )
        return review

    def add_rating(self, rating: ReviewRating) -> ReviewRating:
        """Record a helpfulness rating of a review.

        Domain rules: the rater must not be the review's writer, and each
        (rater, review) pair may appear at most once (the primary key).
        """
        entry = self._reviews.get(rating.review_id)
        if entry is None:
            raise IntegrityError(f"rating references unknown review {rating.review_id!r}")
        review, category_id = entry
        if review.writer_id == rating.rater_id:
            raise IntegrityError(
                f"user {rating.rater_id!r} cannot rate their own review {rating.review_id!r}"
            )
        key = (rating.rater_id, rating.review_id)
        if key in self._ratings:
            raise IntegrityError(f"duplicate primary key: rating {key!r}")
        if rating.rater_id not in self._users:
            raise IntegrityError(
                f"rating references unknown rater {rating.rater_id!r}"
            )
        stored = (
            rating
            if type(rating.value) is float
            else ReviewRating(rating.rater_id, rating.review_id, float(rating.value))
        )
        self._ratings[key] = stored
        self._review_ratings.setdefault(rating.review_id, []).append(stored)
        self._rater_ratings.setdefault(rating.rater_id, []).append(stored)
        self._record(
            "rating",
            user_id=rating.rater_id,
            category_id=category_id,
            target_id=rating.review_id,
        )
        return rating

    def add_trust(self, statement: TrustStatement) -> TrustStatement:
        """Record an explicit (binary) trust statement."""
        key = (statement.truster_id, statement.trustee_id)
        if key in self._trust:
            raise IntegrityError(f"duplicate primary key: trust {key!r}")
        for user_id in key:
            if user_id not in self._users:
                raise IntegrityError(
                    f"trust statement references unknown user {user_id!r}"
                )
        self._trust[key] = statement
        self._record(
            "trust", user_id=statement.truster_id, target_id=statement.trustee_id
        )
        return statement

    def touch(self, category_id: str | None = None) -> None:
        """Publish an explicit recompute request for ``category_id``.

        Adds no data; subscribers (e.g. the incremental Step-1 tracker)
        treat the named category -- or every category when ``None`` -- as
        dirty.  This is the change-log replacement for manual
        dirty-flagging.
        """
        if category_id is not None:
            self._require_category(category_id)
        self._record("touch", category_id=category_id)

    # ------------------------------------------------------------------ reads

    def columns(self) -> CommunityColumns:
        """The cached columnar view of this community's reviews and ratings.

        The snapshot is stale exactly when its user, category, review or
        rating count differs from the community's; it is then refreshed
        from the records past its counts
        (:meth:`CommunityColumns.refreshed`), never rebuilt.  Object,
        trust and touch deltas leave it current, because it encodes none
        of them.
        """
        cached = self._columns
        if cached is None:
            obs.add("community.columns.miss")
            with obs.span(
                "community.columns.build",
                users=len(self._users),
                ratings=len(self._ratings),
            ):
                self._columns = CommunityColumns.from_community(self)
            return self._columns
        new_reviews = len(self._reviews) - cached.num_reviews
        new_ratings = len(self._ratings) - cached.num_ratings
        if (
            not new_reviews
            and not new_ratings
            and len(cached.users) == len(self._users)
            and len(cached.categories) == len(self._categories)
        ):
            obs.add("community.columns.hit")
            return cached
        obs.add("community.columns.refresh")
        with obs.span(
            "community.columns.refresh",
            new_reviews=new_reviews,
            new_ratings=new_ratings,
        ):
            self._columns = CommunityColumns.refreshed(cached, self)
        return self._columns

    def records_after(
        self, num_reviews: int, num_ratings: int
    ) -> tuple[list[tuple[Review, str]], list[ReviewRating]]:
        """Reviews (with their category) and ratings past the given counts.

        The columnar snapshot's one read of the records: a cold build asks
        for everything, a refresh for what was appended since its counts.
        """
        return _tail(self._reviews, num_reviews), _tail(self._ratings, num_ratings)

    def user_ids(self) -> list[str]:
        """All user ids, in registration order."""
        return list(self._users)

    def category_ids(self) -> list[str]:
        """All category ids, in registration order."""
        return list(self._categories)

    def object_ids(self, category_id: str | None = None) -> list[str]:
        """Object ids, optionally restricted to one category."""
        if category_id is None:
            return list(self._objects)
        return list(self._category_objects.get(category_id, []))

    def has_user(self, user_id: str) -> bool:
        """Whether ``user_id`` is registered."""
        return user_id in self._users

    def num_users(self) -> int:
        """Number of registered users."""
        return len(self._users)

    def num_categories(self) -> int:
        """Number of registered categories."""
        return len(self._categories)

    def num_reviews(self, category_id: str | None = None) -> int:
        """Number of reviews (optionally within one category)."""
        if category_id is None:
            return len(self._reviews)
        if category_id not in self._categories:
            return 0
        sl = self.columns().reviews_slice(category_id)
        return sl.stop - sl.start

    def num_ratings(self, category_id: str | None = None) -> int:
        """Number of review ratings (optionally within one category)."""
        if category_id is None:
            return len(self._ratings)
        if category_id not in self._categories:
            return 0
        sl = self.columns().ratings_slice(category_id)
        return sl.stop - sl.start

    def reviews_in_category(self, category_id: str) -> list[Review]:
        """All reviews written in ``category_id``."""
        self._require_category(category_id)
        columns = self.columns()
        return [
            self._reviews[review_id][0]
            for review_id in columns.review_ids[columns.reviews_slice(category_id)]
        ]

    def review_category(self, review_id: str) -> str:
        """The category a review belongs to."""
        return self._review_entry(review_id)[1]

    def review_writer(self, review_id: str) -> str:
        """The writer of a review."""
        return self._review_entry(review_id)[0].writer_id

    def ratings_of_review(self, review_id: str) -> list[tuple[str, float]]:
        """``(rater_id, value)`` pairs for one review, in insertion order."""
        return [(r.rater_id, r.value) for r in self._review_ratings.get(review_id, ())]

    def reviews_by_writer(self, writer_id: str, category_id: str | None = None) -> list[str]:
        """Review ids written by ``writer_id`` (optionally in one category)."""
        review_ids = self._writer_reviews.get(writer_id, [])
        if category_id is None:
            return list(review_ids)
        return [rid for rid in review_ids if self._reviews[rid][1] == category_id]

    def ratings_by_rater(
        self, rater_id: str, category_id: str | None = None
    ) -> list[tuple[str, float]]:
        """``(review_id, value)`` pairs rated by ``rater_id``."""
        return [
            (r.review_id, r.value)
            for r in self._rater_ratings.get(rater_id, ())
            if category_id is None or self._reviews[r.review_id][1] == category_id
        ]

    def writing_counts(self, category_id: str) -> dict[str, int]:
        """``a^w``: reviews written per user in ``category_id`` (eq. 4)."""
        self._require_category(category_id)
        return self.columns().writing_counts(category_id)

    def rating_counts(self, category_id: str) -> dict[str, int]:
        """``a^r``: review ratings given per user in ``category_id`` (eq. 4)."""
        self._require_category(category_id)
        return self.columns().rating_counts(category_id)

    def rating_triples(self, category_id: str) -> list[tuple[str, str, float]]:
        """``(rater_id, review_id, value)`` triples given in ``category_id``.

        This is exactly the input :func:`repro.reputation.solve_category`
        consumes (paper eqs. 1-2 operate per category).
        """
        self._require_category(category_id)
        return self.columns().rating_triples(category_id)

    def trust_edges(self) -> list[tuple[str, str]]:
        """All explicit trust statements as ``(truster, trustee)`` pairs."""
        return list(self._trust)

    def trusts(self, truster_id: str, trustee_id: str) -> bool:
        """Whether an explicit trust statement ``truster -> trustee`` exists."""
        return (truster_id, trustee_id) in self._trust

    def num_trust_edges(self) -> int:
        """Number of explicit trust statements."""
        return len(self._trust)

    def iter_users(self) -> Iterator[User]:
        """Iterate over every user, in registration order."""
        return iter(self._users.values())

    def iter_categories(self) -> Iterator[Category]:
        """Iterate over every category, in registration order."""
        return iter(self._categories.values())

    def iter_objects(self) -> Iterator[ReviewedObject]:
        """Iterate over every reviewed object, in registration order."""
        return iter(self._objects.values())

    def iter_reviews(self) -> Iterator[Review]:
        """Iterate over every review in the community."""
        return (review for review, _category in self._reviews.values())

    def iter_ratings(self) -> Iterator[ReviewRating]:
        """Iterate over every rating in the community."""
        return iter(self._ratings.values())

    # -------------------------------------------------------- pairwise relations

    def direct_connections(self) -> dict[tuple[str, str], list[float]]:
        """The relation ``R`` with rating values attached.

        Returns a map ``(rater i, writer j) -> [rating values i gave to
        reviews of j]``.  ``R_ij = 1`` in the paper iff the pair is present.
        The baseline ``B_ij`` is the mean of the value list.
        """
        return self.columns().direct_connections()

    # ------------------------------------------------------------------ bulk

    @classmethod
    def from_records(
        cls,
        *,
        name: str = "community",
        users: Iterable[User | str] = (),
        categories: Iterable[Category | str] = (),
        objects: Iterable[ReviewedObject] = (),
        reviews: Iterable[Review] = (),
        ratings: Iterable[ReviewRating] = (),
        trust: Iterable[TrustStatement] = (),
    ) -> "Community":
        """Build a community from record iterables (order-safe).

        The cyclic collector is paused for the build (see
        :func:`repro.common.paused_gc`): records form no reference cycles,
        so a collection here would only walk them.
        """
        community = cls(name)
        with paused_gc():
            for user in users:
                community.add_user(user)
            for cat in categories:
                community.add_category(cat)
            for obj in objects:
                community.add_object(obj)
            for review in reviews:
                community.add_review(review)
            for rating in ratings:
                community.add_rating(rating)
            for statement in trust:
                community.add_trust(statement)
        return community

    def summary(self) -> dict[str, int]:
        """Record counts of every entity kind."""
        return {
            "users": len(self._users),
            "categories": len(self._categories),
            "objects": len(self._objects),
            "reviews": len(self._reviews),
            "ratings": len(self._ratings),
            "trust": len(self._trust),
        }

    # ------------------------------------------------------------------ internal

    def _require_category(self, category_id: str) -> None:
        if category_id not in self._categories:
            raise ValidationError(f"unknown category {category_id!r}")

    def _review_entry(self, review_id: str) -> tuple[Review, str]:
        entry = self._reviews.get(review_id)
        if entry is None:
            raise ValidationError(f"unknown review {review_id!r}")
        return entry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.summary()
        return (
            f"Community({self.name!r}: users={s['users']}, reviews={s['reviews']}, "
            f"ratings={s['ratings']}, trust={s['trust']})"
        )
