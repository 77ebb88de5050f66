"""Tests for the cyclic-collector pause and the bulk ingest paths that use it."""

import gc

import pytest

from repro.common import paused_gc
from repro.common.errors import DatasetError, IntegrityError
from repro.community import Community, Review, ReviewedObject
from repro.datasets import load_epinions_community


@pytest.fixture(autouse=True)
def restore_collector():
    """Leave the collector enabled whatever a failing test did to it."""
    yield
    gc.enable()


@pytest.fixture
def dump(tmp_path):
    directory = tmp_path / "dump"
    directory.mkdir()
    (directory / "mc.txt").write_text("r1|alice|m1|c\nr2|bob|m2|c\n")
    (directory / "rating.txt").write_text("r1|bob|3\nr2|alice|5\n")
    (directory / "user_rating.txt").write_text("bob|alice|1\n")
    return directory


@pytest.fixture
def broken_dump(tmp_path):
    """A dump whose second line repeats a review id (a ``DatasetError``)."""
    directory = tmp_path / "broken"
    directory.mkdir()
    (directory / "mc.txt").write_text("r1|alice|m1|c\nr1|bob|m2|c\n")
    (directory / "rating.txt").write_text("r1|bob|3\n")
    return directory


@pytest.fixture
def collector_during_adds(monkeypatch):
    """Record ``gc.isenabled()`` at every ``Community.add_user`` call."""
    seen = []
    original = Community.add_user

    def add_user(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Community, "add_user", add_user)
    return seen


def from_records():
    return Community.from_records(
        users=["alice", "bob"],
        categories=["c"],
        objects=[ReviewedObject("m1", "c")],
        reviews=[Review("r1", "alice", "m1")],
    )


class TestPausedGc:
    def test_disables_inside_and_restores(self):
        assert gc.isenabled()
        with paused_gc():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with paused_gc():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_keeps_a_disabled_caller_disabled(self):
        gc.disable()
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nested_pause_restores_outer_state(self):
        with paused_gc():
            with paused_gc():
                pass
            assert not gc.isenabled()
        assert gc.isenabled()


class TestEpinionsLoad:
    def test_paused_during_ingest_and_restored(self, dump, collector_during_adds):
        community = load_epinions_community(str(dump))
        assert community.num_ratings() == 2
        assert collector_during_adds == [False, False]
        assert gc.isenabled()

    def test_restored_after_dataset_error(self, broken_dump):
        with pytest.raises(DatasetError, match="mc.txt:2"):
            load_epinions_community(str(broken_dump))
        assert gc.isenabled()

    def test_caller_with_collector_off_keeps_it_off(self, dump, broken_dump):
        gc.disable()
        load_epinions_community(str(dump))
        assert not gc.isenabled()
        with pytest.raises(DatasetError):
            load_epinions_community(str(broken_dump))
        assert not gc.isenabled()


class TestFromRecords:
    def test_paused_during_ingest_and_restored(self, collector_during_adds):
        community = from_records()
        assert community.num_reviews() == 1
        assert collector_during_adds == [False, False]
        assert gc.isenabled()

    def test_restored_after_integrity_error(self):
        with pytest.raises(IntegrityError, match="duplicate"):
            Community.from_records(users=["alice", "alice"])
        assert gc.isenabled()

    def test_caller_with_collector_off_keeps_it_off(self):
        gc.disable()
        from_records()
        assert not gc.isenabled()
