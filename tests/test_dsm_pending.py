"""Edge cases for the version-deferral index (dsm/pending.py).

The protocol's determinism contract requires the index to reproduce
the service order of the flat-list code it replaced: eligibility in
arrival (FIFO) order among the eligible set.  The cases here pin the
subtle orderings — duplicate ``min_version`` keys and pop-after-bump
interleavings — that a heap could silently permute.
"""

from repro.dsm.pending import VersionIndexedQueue


# -- VersionIndexedQueue ----------------------------------------------------


def test_duplicate_min_version_keys_pop_in_arrival_order():
    q = VersionIndexedQueue()
    for tag in ("a", "b", "c", "d"):
        q.push(5, tag)
    assert q.pop_ready(5) == ["a", "b", "c", "d"]
    assert len(q) == 0


def test_pop_ready_interleaves_versions_in_arrival_order():
    q = VersionIndexedQueue()
    q.push(2, "first")   # seq 0
    q.push(1, "second")  # seq 1
    q.push(2, "third")   # seq 2
    q.push(1, "fourth")  # seq 3
    # all eligible at version 2: arrival order wins, not version order
    assert q.pop_ready(2) == ["first", "second", "third", "fourth"]


def test_pop_ready_returns_only_newly_eligible():
    q = VersionIndexedQueue()
    q.push(1, "v1")
    q.push(3, "v3")
    q.push(2, "v2")
    assert q.pop_ready(0) == []
    assert q.pop_ready(1) == ["v1"]
    assert q.pop_ready(2) == ["v2"]
    assert len(q) == 1
    assert q.pop_ready(10) == ["v3"]


def test_pop_after_bump_preserves_arrival_order_within_each_bump():
    # requests keep arriving between version bumps; each pop must hand
    # back the newly-eligible set in arrival order, and later arrivals
    # for an already-reached version pop immediately on the next bump
    q = VersionIndexedQueue()
    q.push(1, "a")
    q.push(2, "b")
    assert q.pop_ready(1) == ["a"]
    q.push(1, "late-for-v1")  # arrives after v1 was already reached
    q.push(2, "c")
    assert q.pop_ready(2) == ["b", "late-for-v1", "c"]


def test_drain_returns_everything_in_arrival_order():
    q = VersionIndexedQueue()
    q.push(9, "x")
    q.push(1, "y")
    q.push(5, "z")
    assert q.drain() == ["x", "y", "z"]
    assert not q
    assert q.drain() == []


def test_iter_is_arrival_order_and_non_destructive():
    q = VersionIndexedQueue()
    q.push(7, "p")
    q.push(3, "q")
    assert list(q) == ["p", "q"]
    assert len(q) == 2
