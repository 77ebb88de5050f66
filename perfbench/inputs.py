"""Seeded workload inputs, all made before any timing starts.

``--seed`` drives :func:`repro.datasets.generate_community` at
:data:`USERS` users; the program then receives only what is derived from
that community here: Epinions-format files for the batch path, and base
records plus a held-back record stream for the update paths.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from repro.community import Community, Review, ReviewRating, TrustStatement
from repro.datasets import SyntheticDataset, generate_community, write_epinions_files
from repro.engine import CommunityRecords, cold_artifacts, extract_records, split_rating_stream
from repro.experiments import paper_profile

__all__ = [
    "USERS",
    "MIXED_BATCH",
    "Record",
    "DeriveInputs",
    "StreamInputs",
    "generate",
    "derive_inputs",
    "entries_digest",
    "file_digest",
    "local_stream",
    "mixed_stream",
    "apply_record",
    "base_community",
]

USERS = 2000
#: share of the median-size category's ratings held back for update_local
LOCAL_WITHHOLD_SHARE = 0.3
#: share of each record table (reviews, ratings, trust) held back for update_mixed
MIXED_WITHHOLD_SHARE = 0.05
#: records applied per Engine.update() in update_mixed
MIXED_BATCH = 10

DIGESTS_PATH = Path(__file__).with_name("digests.json")

Record = Union[Review, ReviewRating, TrustStatement]


@dataclass(frozen=True)
class DeriveInputs:
    """Epinions files of the community and the digests its output must have.

    ``reference_digest`` hashes ``T-hat`` computed in memory from the
    generated community, without the files; ``recorded_digest`` is the
    digest recorded in ``digests.json`` for ``(USERS, seed)``, if any.
    """

    directory: str
    reference_digest: str
    recorded_digest: str | None

    def accepts(self, digest: str) -> bool:
        return digest == self.reference_digest and self.recorded_digest in (None, digest)


@dataclass(frozen=True)
class StreamInputs:
    """Records of the base community and the batches replayed onto it."""

    base: CommunityRecords
    batches: tuple[tuple[Record, ...], ...]
    description: str


def generate(seed: int) -> SyntheticDataset:
    return generate_community(paper_profile(USERS), seed)


def entries_digest(entries: Iterable[tuple[str, str, float]]) -> str:
    """sha256 of ``T-hat`` in ``repro derive``'s output format (default ``--min-trust``)."""
    digest = hashlib.sha256()
    for source, target, value in entries:
        if value > 0.0:
            digest.update(f"{source}|{target}|{value:.6f}\n".encode())
    return digest.hexdigest()


def file_digest(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def recorded_digest(seed: int) -> str | None:
    table: dict[str, str] = json.loads(DIGESTS_PATH.read_text())
    return table.get(f"{USERS}:{seed}")


def derive_inputs(dataset: SyntheticDataset, directory: str | Path, seed: int) -> DeriveInputs:
    write_epinions_files(dataset.community, str(directory))
    reference = entries_digest(cold_artifacts(dataset.community).derived.entries())
    return DeriveInputs(str(directory), reference, recorded_digest(seed))


def local_stream(community: Community) -> StreamInputs:
    """The newest ratings of the median-size category, one per update."""
    by_size = sorted(community.category_ids(), key=community.num_ratings)
    category = by_size[len(by_size) // 2]
    withhold = int(community.num_ratings(category) * LOCAL_WITHHOLD_SHARE)
    base, stream = split_rating_stream(community, withhold, category_id=category)
    return StreamInputs(
        extract_records(base),
        tuple((rating,) for rating in stream),
        f"{len(stream)} ratings of {category}, 1 per update",
    )


def mixed_stream(community: Community, seed: int) -> StreamInputs:
    """The newest reviews, ratings and trust statements, ``MIXED_BATCH`` per update.

    Each table keeps its insertion order; the three are interleaved by
    seeded arrival times.  Ratings of a held-back review are held back too
    and arrive after their review.
    """
    records = extract_records(community)

    def newest(table: tuple) -> int:
        return len(table) - round(len(table) * MIXED_WITHHOLD_SHARE)

    reviews = records.reviews[newest(records.reviews) :]
    held_review_ids = {review.review_id for review in reviews}
    cutoff = newest(records.ratings)
    held_ratings = {
        position
        for position, rating in enumerate(records.ratings)
        if position >= cutoff or rating.review_id in held_review_ids
    }
    ratings = tuple(records.ratings[position] for position in sorted(held_ratings))
    trust = records.trust[newest(records.trust) :]

    rng = random.Random(seed)

    def arrivals(count: int) -> list[float]:
        return sorted(rng.random() for _ in range(count))

    timeline: list[tuple[float, int, int, Record]] = []
    review_time: dict[str, float] = {}
    for position, (at, review) in enumerate(zip(arrivals(len(reviews)), reviews)):
        review_time[review.review_id] = at
        timeline.append((at, 0, position, review))
    for position, (at, rating) in enumerate(zip(arrivals(len(ratings)), ratings)):
        at = max(at, review_time.get(rating.review_id, 0.0))
        timeline.append((at, 1, position, rating))
    for position, (at, statement) in enumerate(zip(arrivals(len(trust)), trust)):
        timeline.append((at, 2, position, statement))
    timeline.sort(key=lambda event: event[:3])
    stream = [event[3] for event in timeline]

    base = CommunityRecords(
        users=records.users,
        categories=records.categories,
        objects=records.objects,
        reviews=records.reviews[: newest(records.reviews)],
        ratings=tuple(
            rating
            for position, rating in enumerate(records.ratings)
            if position not in held_ratings
        ),
        trust=records.trust[: newest(records.trust)],
    )
    batches = tuple(
        tuple(stream[start : start + MIXED_BATCH])
        for start in range(0, len(stream), MIXED_BATCH)
    )
    return StreamInputs(
        base,
        batches,
        f"{len(reviews)} reviews, {len(ratings)} ratings, {len(trust)} trust "
        f"statements, {MIXED_BATCH} per update",
    )


def base_community(records: CommunityRecords) -> Community:
    return Community.from_records(
        name="base",
        users=records.users,
        categories=records.categories,
        objects=records.objects,
        reviews=records.reviews,
        ratings=records.ratings,
        trust=records.trust,
    )


def apply_record(community: Community, record: Record) -> None:
    """Hand one held-back record to the community's matching mutator."""
    if isinstance(record, ReviewRating):
        community.add_rating(record)
    elif isinstance(record, Review):
        community.add_review(record)
    else:
        community.add_trust(record)
