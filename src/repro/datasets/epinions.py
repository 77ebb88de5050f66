"""Readers/writers for the *extended Epinions dataset* file formats.

The publicly released extended Epinions dump (the dataset family the paper
crawled its data from) ships pipe-separated text files:

- ``mc.txt`` -- review content metadata:
  ``content_id|author_id|subject_id`` (one review per line; the subject is
  the reviewed object).  We additionally accept an optional 4th
  ``category_id`` column, since the paper's pipeline is per category and
  the original dump carries the category through the subject hierarchy.
- ``rating.txt`` -- helpfulness ratings of reviews:
  ``content_id|member_id|rating`` with ratings ``1..5``
  (mapped onto the paper's ``0.2 .. 1.0`` scale).
- ``user_rating.txt`` -- the explicit web of trust:
  ``my_id|other_id|value`` with value ``1`` (trust) or ``-1`` (distrust;
  dropped, as the paper's framework models trust only).

:func:`load_epinions_community` assembles a
:class:`repro.community.Community` from these files;
:func:`write_epinions_files` serialises a community back, enabling
round-trips and fixture creation.
"""

from __future__ import annotations

import os
from typing import Iterable

from repro import obs
from repro.common.collector import paused_gc
from repro.common.errors import DatasetError, IntegrityError
from repro.community import (
    Community,
    HELPFULNESS_SCALE,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
)

__all__ = ["load_epinions_community", "write_epinions_files"]

_DEFAULT_CATEGORY = "epinions"


def load_epinions_community(
    directory: str,
    *,
    content_file: str = "mc.txt",
    rating_file: str = "rating.txt",
    trust_file: str = "user_rating.txt",
    separator: str = "|",
    skip_unknown_reviews: bool = True,
    skip_self_ratings: bool = True,
) -> Community:
    """Load a community from extended-Epinions-format files in ``directory``.

    Parameters
    ----------
    directory:
        Directory holding the three files.  ``trust_file`` may be absent
        (no explicit web of trust -- exactly the situation the paper's
        framework is designed for).
    skip_unknown_reviews:
        Ratings referencing review ids absent from the content file are
        skipped when ``True``, raised as :class:`DatasetError` otherwise.
    skip_self_ratings:
        Epinions dumps occasionally contain authors rating their own
        reviews; the community model forbids that, so they are dropped by
        default.

    Returns
    -------
    Community
        With one category per distinct category id found (or a single
        ``"epinions"`` category when the content file has no category
        column).
    """
    content_path = os.path.join(directory, content_file)
    rating_path = os.path.join(directory, rating_file)
    trust_path = os.path.join(directory, trust_file)
    if not os.path.exists(content_path):
        raise DatasetError(f"content file not found: {content_path}")
    if not os.path.exists(rating_path):
        raise DatasetError(f"rating file not found: {rating_path}")

    with obs.span("datasets.load", directory=directory), paused_gc():
        reviews = list(_parse_content(content_path, separator))
        community = Community("epinions")

        categories = sorted({category for *_, category in reviews})
        users: set[str] = set()
        for _line_no, _review_id, author_id, _subject_id, _category in reviews:
            users.add(author_id)

        ratings = list(_parse_ratings(rating_path, separator))
        for _line_no, _review_id, member_id, _value in ratings:
            users.add(member_id)

        trust_edges: list[tuple[str, str]] = []
        if os.path.exists(trust_path):
            trust_edges = list(_parse_trust(trust_path, separator))
            for source, target in trust_edges:
                users.add(source)
                users.add(target)

        for uid in sorted(users):
            community.add_user(uid)
        for cid in categories:
            community.add_category(cid)

        # subjects (reviewed objects) may be shared across reviews, but not
        # across categories
        object_category: dict[str, str] = {}
        known_reviews: set[str] = set()
        for line_no, review_id, author_id, subject_id, category in reviews:
            listed = object_category.get(subject_id)
            if listed is None:
                community.add_object(ReviewedObject(subject_id, category))
                object_category[subject_id] = category
            elif listed != category:
                raise DatasetError(
                    f"{content_path}:{line_no}: object {subject_id!r} listed under "
                    f"both {listed!r} and {category!r}"
                )
            try:
                community.add_review(Review(review_id, author_id, subject_id))
            except IntegrityError as exc:  # duplicate id, second review of an object
                raise DatasetError(f"{content_path}:{line_no}: {exc}") from exc
            known_reviews.add(review_id)

        seen_pairs: set[tuple[str, str]] = set()
        for line_no, review_id, member_id, value in ratings:
            if review_id not in known_reviews:
                if skip_unknown_reviews:
                    continue
                raise DatasetError(
                    f"{rating_path}:{line_no}: rating references unknown review {review_id!r}"
                )
            if (member_id, review_id) in seen_pairs:
                continue  # keep the first occurrence, as the site would
            if skip_self_ratings and community.review_writer(review_id) == member_id:
                continue
            seen_pairs.add((member_id, review_id))
            try:
                community.add_rating(ReviewRating(member_id, review_id, value))
            except IntegrityError as exc:  # a kept self-rating
                raise DatasetError(f"{rating_path}:{line_no}: {exc}") from exc

        seen_trust: set[tuple[str, str]] = set()
        for source, target in trust_edges:
            if source == target or (source, target) in seen_trust:
                continue
            seen_trust.add((source, target))
            community.add_trust(TrustStatement(source, target))
        return community


def write_epinions_files(
    community: Community,
    directory: str,
    *,
    content_file: str = "mc.txt",
    rating_file: str = "rating.txt",
    trust_file: str = "user_rating.txt",
    separator: str = "|",
) -> None:
    """Serialise ``community`` into extended-Epinions-format files."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, content_file), "w", encoding="utf-8") as f:
        for review in community.iter_reviews():
            category = community.review_category(review.review_id)
            f.write(
                separator.join(
                    (review.review_id, review.writer_id, review.object_id, category)
                )
                + "\n"
            )
    with open(os.path.join(directory, rating_file), "w", encoding="utf-8") as f:
        for rating in community.iter_ratings():
            stars = _scale_to_stars(rating.value)
            f.write(separator.join((rating.review_id, rating.rater_id, str(stars))) + "\n")
    with open(os.path.join(directory, trust_file), "w", encoding="utf-8") as f:
        for source, target in community.trust_edges():
            f.write(separator.join((source, target, "1")) + "\n")


# ------------------------------------------------------------------- parsing


def _parse_content(
    path: str, separator: str
) -> Iterable[tuple[int, str, str, str, str]]:
    for line_no, fields in _iter_fields(path, separator):
        if len(fields) == 3:
            review_id, author_id, subject_id = fields
            category = _DEFAULT_CATEGORY
        elif len(fields) >= 4:
            review_id, author_id, subject_id, category = fields[:4]
        else:
            raise DatasetError(
                f"{path}:{line_no}: expected 3 or 4 fields, got {len(fields)}"
            )
        _require_ids(path, line_no, review_id, author_id, subject_id, category)
        yield line_no, review_id, author_id, subject_id, category


def _parse_ratings(path: str, separator: str) -> Iterable[tuple[int, str, str, float]]:
    for line_no, fields in _iter_fields(path, separator):
        if len(fields) < 3:
            raise DatasetError(f"{path}:{line_no}: expected 3 fields, got {len(fields)}")
        review_id, member_id, raw = fields[:3]
        _require_ids(path, line_no, review_id, member_id)
        yield line_no, review_id, member_id, _stars_to_scale(raw, path, line_no)


def _parse_trust(path: str, separator: str) -> Iterable[tuple[str, str]]:
    for line_no, fields in _iter_fields(path, separator):
        if len(fields) < 2:
            raise DatasetError(f"{path}:{line_no}: expected >=2 fields, got {len(fields)}")
        source, target = fields[:2]
        _require_ids(path, line_no, source, target)
        value = fields[2].strip() if len(fields) >= 3 else "1"
        if value == "-1":
            continue  # distrust: outside the paper's model
        yield source, target


def _iter_fields(path: str, separator: str):
    with open(path, "rb") as f:
        for line_no, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise DatasetError(
                    f"{path}:{line_no}: not valid UTF-8 ({exc.reason})"
                ) from exc
            if not line or line.startswith("#"):
                continue
            yield line_no, [field.strip() for field in line.split(separator)]


def _require_ids(path: str, line_no: int, *ids: str) -> None:
    if not all(ids):
        raise DatasetError(f"{path}:{line_no}: empty id field")


def _stars_to_scale(raw: str, path: str, line_no: int) -> float:
    try:
        stars = int(raw)
    except ValueError as exc:
        raise DatasetError(f"{path}:{line_no}: bad rating {raw!r}") from exc
    if not 1 <= stars <= 5:
        raise DatasetError(f"{path}:{line_no}: rating must be 1..5, got {stars}")
    return HELPFULNESS_SCALE[stars - 1]


def _scale_to_stars(value: float) -> int:
    for stars, stage in enumerate(HELPFULNESS_SCALE, start=1):
        if abs(value - stage) < 1e-9:
            return stars
    raise DatasetError(f"value {value!r} is not on the helpfulness scale")
