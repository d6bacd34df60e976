"""STF dependency-inference tests: R/W/RW/COMMUTE semantics."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.stf import Program, TaskFlow, template_key
from repro.runtime.task import AccessMode

R, W, RW, C = AccessMode.R, AccessMode.W, AccessMode.RW, AccessMode.COMMUTE


def preds(task):
    return {p.tid for p in task.preds}


class TestBasicDependencies:
    def test_read_after_write(self):
        flow = TaskFlow()
        h = flow.data(8)
        writer = flow.submit("w", [(h, W)])
        reader = flow.submit("r", [(h, R)])
        assert preds(reader) == {writer.tid}

    def test_independent_readers(self):
        flow = TaskFlow()
        h = flow.data(8)
        writer = flow.submit("w", [(h, W)])
        r1 = flow.submit("r", [(h, R)])
        r2 = flow.submit("r", [(h, R)])
        assert preds(r1) == {writer.tid}
        assert preds(r2) == {writer.tid}
        assert r2.tid not in preds(r1)

    def test_write_after_read_waits_for_all_readers(self):
        flow = TaskFlow()
        h = flow.data(8)
        w0 = flow.submit("w", [(h, W)])
        r1 = flow.submit("r", [(h, R)])
        r2 = flow.submit("r", [(h, R)])
        w1 = flow.submit("w", [(h, W)])
        assert preds(w1) == {r1.tid, r2.tid}
        assert w0.tid not in preds(w1)  # covered transitively

    def test_write_after_write_serializes(self):
        flow = TaskFlow()
        h = flow.data(8)
        w0 = flow.submit("w", [(h, W)])
        w1 = flow.submit("w", [(h, W)])
        assert preds(w1) == {w0.tid}

    def test_rw_chain(self):
        flow = TaskFlow()
        h = flow.data(8)
        tasks = [flow.submit("t", [(h, RW)]) for _ in range(4)]
        for earlier, later in zip(tasks, tasks[1:]):
            assert preds(later) == {earlier.tid}

    def test_multi_handle_dependencies_deduplicated(self):
        flow = TaskFlow()
        h1, h2 = flow.data(8), flow.data(8)
        producer = flow.submit("p", [(h1, W), (h2, W)])
        consumer = flow.submit("c", [(h1, R), (h2, R)])
        assert consumer.preds.count(producer) == 1

    def test_no_false_dependencies_between_disjoint_handles(self):
        flow = TaskFlow()
        h1, h2 = flow.data(8), flow.data(8)
        a = flow.submit("a", [(h1, RW)])
        b = flow.submit("b", [(h2, RW)])
        assert preds(b) == set()
        assert a.succs == []


class TestCommute:
    def test_commuters_mutually_independent(self):
        flow = TaskFlow()
        h = flow.data(8)
        w = flow.submit("w", [(h, W)])
        c1 = flow.submit("c", [(h, C)])
        c2 = flow.submit("c", [(h, C)])
        assert preds(c1) == {w.tid}
        assert preds(c2) == {w.tid}

    def test_reader_after_group_waits_for_all_commuters(self):
        flow = TaskFlow()
        h = flow.data(8)
        flow.submit("w", [(h, W)])
        c1 = flow.submit("c", [(h, C)])
        c2 = flow.submit("c", [(h, C)])
        r = flow.submit("r", [(h, R)])
        assert preds(r) == {c1.tid, c2.tid}

    def test_reader_closes_group(self):
        flow = TaskFlow()
        h = flow.data(8)
        flow.submit("w", [(h, W)])
        flow.submit("c", [(h, C)])
        r = flow.submit("r", [(h, R)])
        c3 = flow.submit("c", [(h, C)])
        # The new commuter belongs to a fresh group based on the reader.
        assert preds(c3) == {r.tid}

    def test_writer_after_group(self):
        flow = TaskFlow()
        h = flow.data(8)
        flow.submit("w", [(h, W)])
        c1 = flow.submit("c", [(h, C)])
        c2 = flow.submit("c", [(h, C)])
        w2 = flow.submit("w", [(h, W)])
        assert preds(w2) == {c1.tid, c2.tid}

    def test_commuter_after_readers(self):
        flow = TaskFlow()
        h = flow.data(8)
        flow.submit("w", [(h, W)])
        r1 = flow.submit("r", [(h, R)])
        r2 = flow.submit("r", [(h, R)])
        c = flow.submit("c", [(h, C)])
        assert preds(c) == {r1.tid, r2.tid}

    def test_full_sequence_matches_worked_example(self):
        # W1, C1, C2, R1, C3, W2 — the example from the module design.
        flow = TaskFlow()
        h = flow.data(8)
        w1 = flow.submit("w1", [(h, W)])
        c1 = flow.submit("c1", [(h, C)])
        c2 = flow.submit("c2", [(h, C)])
        r1 = flow.submit("r1", [(h, R)])
        c3 = flow.submit("c3", [(h, C)])
        w2 = flow.submit("w2", [(h, W)])
        assert preds(c1) == {w1.tid}
        assert preds(c2) == {w1.tid}
        assert preds(r1) == {c1.tid, c2.tid}
        assert preds(c3) == {r1.tid}
        assert preds(w2) == {c3.tid}


class TestValidation:
    def test_duplicate_handle_access_rejected(self):
        flow = TaskFlow()
        h = flow.data(8)
        with pytest.raises(ValueError, match="twice"):
            flow.submit("t", [(h, R), (h, W)])

    def test_foreign_handle_rejected(self):
        flow_a, flow_b = TaskFlow(), TaskFlow()
        h = flow_a.data(8)
        with pytest.raises(ValueError, match="not created"):
            flow_b.submit("t", [(h, R)])

    def test_finalized_flow_rejects_submissions(self):
        flow = TaskFlow()
        flow.data(8)
        flow.program()
        with pytest.raises(RuntimeError):
            flow.data(8)

    def test_no_implementation_rejected(self):
        flow = TaskFlow()
        with pytest.raises(ValueError, match="no implementation"):
            flow.submit("t", [], implementations=())


class TestProgram:
    def test_source_and_sink_tasks(self):
        flow = TaskFlow("p")
        h = flow.data(8)
        a = flow.submit("a", [(h, W)])
        b = flow.submit("b", [(h, RW)])
        program = flow.program()
        assert program.source_tasks() == [a]
        assert program.sink_tasks() == [b]
        assert program.n_edges == 1

    def test_total_flops(self):
        flow = TaskFlow()
        h = flow.data(8)
        flow.submit("a", [(h, W)], flops=10.0)
        flow.submit("b", [(h, RW)], flops=32.0)
        assert flow.program().total_flops() == 42.0

    def test_reset_runtime_state(self):
        flow = TaskFlow()
        h = flow.data(8)
        a = flow.submit("a", [(h, W)])
        b = flow.submit("b", [(h, R)])
        program = flow.program()
        b.n_unfinished_preds = 0
        h.valid_nodes = {0, 1, 2}
        a.sched["junk"] = 1
        program.reset_runtime_state()
        assert b.n_unfinished_preds == 1
        assert h.valid_nodes == {h.home_node}
        assert a.sched == {}


# -- structural signature -----------------------------------------------------

_IMPLS = (("cpu",), ("cpu", "cuda"), ("cuda",))
_INF = float("inf")


@st.composite
def program_specs(draw):
    """A plain-data description of a small program, buildable repeatedly."""
    n_handles = draw(st.integers(1, 4))
    handles = [
        {"size": draw(st.integers(0, 1 << 16)), "home": draw(st.integers(0, 1))}
        for _ in range(n_handles)
    ]
    tasks = []
    for _ in range(draw(st.integers(1, 7))):
        hids = draw(st.lists(
            st.integers(0, n_handles - 1), min_size=1, max_size=n_handles,
            unique=True,
        ))
        tasks.append({
            "type_name": draw(st.sampled_from(["gemm", "potrf"])),
            "flops": draw(st.floats(0.0, 1e9, allow_nan=False)),
            "implementations": draw(st.sampled_from(_IMPLS)),
            "priority": draw(st.integers(-3, 3)),
            "tag": draw(st.one_of(st.none(), st.tuples(st.integers(0, 5), st.integers(0, 5)))),
            "resources": draw(st.sampled_from([(), ("lock",)])),
            "deadline_us": draw(st.sampled_from([_INF, 1e4])),
            "accesses": [(h, draw(st.sampled_from(list(AccessMode)))) for h in hids],
        })
    releases = None
    if draw(st.booleans()):
        releases = sorted(draw(st.lists(
            st.floats(0.0, 1e5, allow_nan=False),
            min_size=len(tasks), max_size=len(tasks),
        )))
    return {"handles": handles, "tasks": tasks, "releases": releases}


def build(spec) -> Program:
    flow = TaskFlow("job")
    hs = [
        flow.data(h["size"], label=f"h{i}", home_node=h["home"])
        for i, h in enumerate(spec["handles"])
    ]
    for t in spec["tasks"]:
        fields = {k: v for k, v in t.items() if k not in ("type_name", "accesses")}
        flow.submit(t["type_name"], [(hs[h], m) for h, m in t["accesses"]], **fields)
    program = flow.program()
    if spec["releases"] is None:
        return program
    return Program(program.tasks, program.handles, program.name, spec["releases"])


def _toggle_edge(program: Program, i: int, j: int) -> None:
    """Add the edge j -> i, or remove it when it already exists."""
    a, b = program.tasks[j], program.tasks[i]
    if a in b.preds:
        b.preds.remove(a)
        a.succs.remove(b)
    else:
        b.preds.append(a)
        a.succs.append(b)


_TASK_FIELDS = ("flops", "priority", "implementations", "tag", "resources", "deadline_us", "mode")


def perturb(spec, field, i):
    """A copy of ``spec`` with exactly one ``field`` of entry ``i`` changed."""
    spec = copy.deepcopy(spec)
    if field in _TASK_FIELDS:
        task = spec["tasks"][i % len(spec["tasks"])]
        if field == "flops":
            task["flops"] = task["flops"] * 2.0 + 1.0
        elif field == "priority":
            task["priority"] += 1
        elif field == "implementations":
            task["implementations"] = _IMPLS[(_IMPLS.index(task["implementations"]) + 1) % 3]
        elif field == "tag":
            task["tag"] = ("perturbed", i)
        elif field == "resources":
            task["resources"] = () if task["resources"] else ("lock",)
        elif field == "deadline_us":
            task["deadline_us"] = 1e4 if task["deadline_us"] == _INF else _INF
        else:
            h, mode = task["accesses"][0]
            task["accesses"][0] = (h, AccessMode(mode % 4 + 1))
    elif field in ("size", "home"):
        handle = spec["handles"][i % len(spec["handles"])]
        handle[field] = handle[field] + 1 if field == "size" else 1 - handle[field]
    else:  # release
        n = len(spec["tasks"])
        if spec["releases"] is None:
            spec["releases"] = [0.0] * n
        else:
            spec["releases"][-1] += 1.0
    return spec


class TestSignature:
    @given(program_specs())
    @settings(max_examples=60, deadline=None)
    def test_factory_calls_agree(self, spec):
        a, b = build(spec), build(spec)
        assert a.signature() == b.signature()
        assert hash(a.signature()) == hash(b.signature())
        assert template_key(a) == template_key(b)

    @given(
        program_specs(),
        st.sampled_from(_TASK_FIELDS + ("size", "home", "release")),
        st.integers(0, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_single_field_change_shows(self, spec, field, i):
        assert build(perturb(spec, field, i)).signature() != build(spec).signature()

    @given(program_specs(), st.integers(0, 10), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_any_single_edge_change_shows(self, spec, i, j):
        base = build(spec)
        n = len(base.tasks)
        if n < 2:
            return
        i = 1 + i % (n - 1)
        edited = build(spec)
        _toggle_edge(edited, i, j % i)
        assert edited.signature() != base.signature()

    def test_name_is_covered(self):
        a, b = TaskFlow("a"), TaskFlow("b")
        for flow in (a, b):
            flow.submit("t", [(flow.data(8), W)])
        assert a.program().signature() != b.program().signature()

    @pytest.mark.parametrize("where", ["tag", "key"])
    def test_unhashable_fields_raise_type_error(self, where):
        flow = TaskFlow()
        h = flow.data(8, key=[0, 1] if where == "key" else None)
        flow.submit("t", [(h, W)], tag={"i": 0} if where == "tag" else None)
        program = flow.program()
        with pytest.raises(TypeError):
            program.signature()
        # Callers fall back to the program object itself as its key.
        assert template_key(program) is program
