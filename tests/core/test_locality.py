"""LS_SDH² locality score tests (Eq. 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.locality import ls_sdh2
from repro.runtime.data import DataHandle
from repro.runtime.task import AccessMode, Task


def handle(hid: int, size: int, nodes: set[int]) -> DataHandle:
    h = DataHandle(hid, size, home_node=0)
    h.valid_nodes = set(nodes)
    return h


def test_reads_count_linearly():
    h = handle(0, 100, {1})
    t = Task(0, "k", [(h, AccessMode.R)])
    assert ls_sdh2(t, 1) == 100.0


def test_writes_count_quadratically():
    h = handle(0, 100, {1})
    t = Task(0, "k", [(h, AccessMode.W)])
    assert ls_sdh2(t, 1) == 100.0**2


def test_rw_counts_in_both_sums():
    h = handle(0, 100, {1})
    t = Task(0, "k", [(h, AccessMode.RW)])
    assert ls_sdh2(t, 1) == 100.0 + 100.0**2


def test_commute_counts_in_both_sums():
    h = handle(0, 10, {2})
    t = Task(0, "k", [(h, AccessMode.COMMUTE)])
    assert ls_sdh2(t, 2) == 10.0 + 100.0


def test_non_resident_data_ignored():
    h = handle(0, 100, {1})
    t = Task(0, "k", [(h, AccessMode.RW)])
    assert ls_sdh2(t, 0) == 0.0


def test_write_dominates_read_of_same_total_size():
    """Keeping the written tile local must outweigh an equally-sized
    read replica — the quadratic term of Eq. 3."""
    write_h = handle(0, 1000, {1})
    read_h = handle(1, 1000, {2})
    t_write_local = Task(0, "k", [(write_h, AccessMode.W), (read_h, AccessMode.R)])
    assert ls_sdh2(t_write_local, 1) > ls_sdh2(t_write_local, 2)


def test_mixed_accesses_sum():
    h_r = handle(0, 50, {3})
    h_w = handle(1, 20, {3})
    h_missing = handle(2, 1000, {0})
    t = Task(0, "k", [(h_r, AccessMode.R), (h_w, AccessMode.W), (h_missing, AccessMode.R)])
    assert ls_sdh2(t, 3) == pytest.approx(50.0 + 400.0)


def reference_ls_sdh2(task: Task, node: int) -> float:
    """The plain Eq. (3) loop through the public handle/mode helpers."""
    score = 0.0
    for h, mode in task.accesses:
        if not h.is_valid_on(node):
            continue
        if mode.is_read:
            score += float(h.size)
        if mode.is_write:
            score += float(h.size) ** 2
    return score


_accesses = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 3, 100, 4096, 10**6, 2**40 + 1]),
        st.frozensets(st.integers(0, 4), max_size=5),
        st.sampled_from(list(AccessMode)),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(accesses=_accesses, node=st.integers(0, 4))
def test_matches_reference_loop(accesses, node):
    """The direct-membership loop is bit-equal to the reference loop on
    every mode, size (0 included) and residency pattern."""
    acc = [(handle(i, size, nodes), mode) for i, (size, nodes, mode) in enumerate(accesses)]
    t = Task(0, "k", acc)
    assert ls_sdh2(t, node) == reference_ls_sdh2(t, node)


def test_sums_at_or_above_2_53_use_the_access_order_loop():
    """Past 2**53 a float sum can round, and its order matters: after
    the big write term, each +1 read rounds away, while three reads
    summed first (+3) round the total up by 4. The score must still
    equal the access-order loop."""
    big = handle(0, 2**27 + 1, {1})
    ones = [handle(i, 1, {1}) for i in (1, 2, 3)]
    t = Task(0, "k", [(big, AccessMode.W)] + [(h, AccessMode.R) for h in ones])
    reads_first = 3.0 + float(2**27 + 1) ** 2
    assert reads_first != reference_ls_sdh2(t, 1)
    assert ls_sdh2(t, 1) == reference_ls_sdh2(t, 1)


def test_replaced_valid_nodes_are_read_live():
    """A write replaces a handle's ``valid_nodes`` set (as
    ``MemoryManager.invalidate_others`` does); a later score must see
    the new set, not the one present at the first score."""
    h_rw = handle(0, 64, {1, 2})
    h_r = handle(1, 8, {1})
    t = Task(0, "k", [(h_rw, AccessMode.RW), (h_r, AccessMode.R)])
    assert ls_sdh2(t, 1) == 64.0 + 64.0**2 + 8.0
    h_rw.valid_nodes = {2}
    for node in (1, 2):
        assert ls_sdh2(t, node) == reference_ls_sdh2(t, node)
    assert ls_sdh2(t, 1) == 8.0
    assert ls_sdh2(t, 2) == 64.0 + 64.0**2
