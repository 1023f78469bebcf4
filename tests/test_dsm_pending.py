"""Edge cases for the indexed pending-work containers (dsm/pending.py).

The protocol's determinism contract requires these containers to
reproduce the service order of the flat-list code they replaced:
eligibility in arrival (FIFO) order among the eligible set.  The cases
here pin the subtle orderings — duplicate ``min_version`` keys,
pop-after-bump interleavings, and FIFO stability under interleaved
keys — that a heap or dict could silently permute.
"""

from repro.dsm.pending import KeyedFifo, VersionIndexedQueue


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


# -- KeyedFifo --------------------------------------------------------------


def test_pop_all_is_fifo_stable_under_interleaved_keys():
    fifo = KeyedFifo()
    fifo.add("x", 1)
    fifo.add("y", 10)
    fifo.add("x", 2)
    fifo.add("y", 20)
    fifo.add("x", 3)
    assert fifo.pop_all("x") == [1, 2, 3]
    assert fifo.pop_all("y") == [10, 20]


def test_pop_all_forgets_the_key():
    fifo = KeyedFifo()
    fifo.add("k", "only")
    assert fifo.pop_all("k") == ["only"]
    assert "k" not in fifo
    assert not fifo
    assert fifo.pop_all("k") == []


def test_truthiness_tracks_parked_work():
    fifo = KeyedFifo()
    assert not fifo
    fifo.add(42, "item")
    assert fifo
    assert 42 in fifo
    assert len(fifo) == 1
    fifo.pop_all(42)
    assert not fifo


def test_prune_empty_drops_only_drained_in_place_keys():
    fifo = KeyedFifo()
    fifo.add("live", 1)
    fifo.add("dead", 2)
    # simulate a caller draining a queue in place through a held reference
    fifo._by_key["dead"].clear()
    assert fifo.prune_empty() == 1
    assert "dead" not in fifo
    assert fifo.pop_all("live") == [1]
    # idempotent on a clean map
    assert fifo.prune_empty() == 0


def test_add_after_prune_empty_starts_a_fresh_queue():
    # pruning must fully forget the key: a later add for it creates a
    # fresh FIFO, and a queue reference held across the prune cannot
    # resurrect parked items into the new one
    fifo = KeyedFifo()
    fifo.add("k", "old")
    stale_ref = fifo._by_key["k"]
    stale_ref.clear()  # drained in place by a reference-holding caller
    assert fifo.prune_empty() == 1
    stale_ref.append("ghost")  # writes to the pruned, orphaned deque
    fifo.add("k", "new")
    assert fifo.pop_all("k") == ["new"]
    assert not fifo
    assert fifo.prune_empty() == 0
