"""Property-based state-machine tests for the lock and barrier managers.

Hypothesis drives random operation sequences against a trivially correct
Python model; any divergence in holder, queue order, notice content, or
round completion is a bug.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.dsm.barrier import BarrierHandle, BarrierState
from repro.dsm.locks import LockTable


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["acquire", "release"]),
            st.integers(min_value=0, max_value=3),  # node
            st.integers(min_value=1, max_value=2),  # lock id
        ),
        max_size=60,
    )
)
@settings(max_examples=200)
def test_lock_table_matches_fifo_model(ops):
    table = LockTable()
    model_holder: dict[int, int | None] = {1: None, 2: None}
    model_queue: dict[int, deque] = {1: deque(), 2: deque()}
    request_counter = [0]

    for op, node, lock_id in ops:
        if op == "acquire":
            # the model ignores duplicate waiters (a real node blocks),
            # so skip acquires by a node already holding or waiting
            if model_holder[lock_id] == node or node in model_queue[lock_id]:
                continue
            request_counter[0] += 1
            granted = table.acquire(
                lock_id, node, (node, request_counter[0]), {}
            )
            if model_holder[lock_id] is None:
                assert granted == {}
                model_holder[lock_id] = node
            else:
                assert granted is None
                model_queue[lock_id].append(node)
        else:  # release
            if model_holder[lock_id] != node:
                continue  # a real node only releases what it holds
            handed = table.release(lock_id, node, notices={})
            if model_queue[lock_id]:
                expected = model_queue[lock_id].popleft()
                assert handed is not None and handed[0][0] == expected
                model_holder[lock_id] = expected
            else:
                assert handed is None
                model_holder[lock_id] = None

    for lock_id in (1, 2):
        lock = table.locks.get(lock_id)
        holder = None if lock is None else lock.holder
        assert holder == model_holder[lock_id]
        queue = [] if lock is None else [node for node, _ in lock.queue]
        assert queue == list(model_queue[lock_id])


@given(
    updates=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5),  # oid
            st.integers(min_value=1, max_value=50),  # version
        ),
        max_size=40,
    ),
    grant_points=st.sets(st.integers(min_value=0, max_value=39)),
)
@settings(max_examples=200)
def test_incremental_grants_deliver_every_notice_exactly_once_per_node(
    updates, grant_points
):
    """A node that receives every grant sees, cumulatively, exactly the
    max-version map — and never a stale regression."""
    table = LockTable()
    node, writer = 7, 3
    table.acquire(1, writer, (writer, 0), {})
    seen: dict[int, int] = {}
    model: dict[int, int] = {}
    for index, (oid, version) in enumerate(updates):
        # the writer's release carries the update; ``node`` queues behind
        # it at each grant point and is handed the lock with its grant
        if index in grant_points:
            table.acquire(1, node, (node, index), {})
        handed = table.release(1, writer, {oid: version})
        if model.get(oid, 0) < version:
            model[oid] = version
        if handed is not None:
            (grantee, _request), grant = handed
            assert grantee == node
            for g_oid, g_version in grant.items():
                assert g_version >= seen.get(g_oid, 0)
                seen[g_oid] = g_version
            table.release(1, node, {})
        table.acquire(1, writer, (writer, index + 1), {})
    table.release(1, writer, {})
    final = table.acquire(1, node, (node, -1), {})
    for g_oid, g_version in final.items():
        seen[g_oid] = max(seen.get(g_oid, 0), g_version)
    assert seen == model


@given(
    parties=st.integers(min_value=1, max_value=5),
    rounds=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
@settings(max_examples=100)
def test_barrier_rounds_merge_all_notices(parties, rounds, data):
    state = BarrierState(BarrierHandle(barrier_id=1, home=0, parties=parties))
    for round_no in range(rounds):
        expected: dict[int, int] = {}
        expected_writers: dict[int, set[int]] = {}
        for node in range(parties):
            notices = data.draw(
                st.dictionaries(
                    st.integers(min_value=1, max_value=4),
                    st.integers(min_value=1, max_value=30),
                    max_size=3,
                ),
                label=f"notices[{round_no}][{node}]",
            )
            complete = state.arrive(node, notices, round_no)
            assert complete == (node == parties - 1)
            for oid, version in notices.items():
                if expected.get(oid, 0) < version:
                    expected[oid] = version
                expected_writers.setdefault(oid, set()).add(node)
        finished_round, merged, writers = state.complete_round()
        assert finished_round == round_no
        assert merged == expected
        assert writers == expected_writers
