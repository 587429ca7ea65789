import threading

from perfbench.tracing import Recorder, Span, self_times


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "parent", 0.0, 10.0, None, 7),
        Span(2, "child", 1.0, 3.0, 1, 7),
        Span(3, "child", 2.0, 5.0, 1, 7),     # overlaps the first child
        Span(4, "child", 8.0, 12.0, 1, 7),    # runs past the parent: clipped
        Span(5, "grandchild", 1.5, 2.5, 2, 7),
    ]
    own = self_times(spans)
    assert own[1] == 10.0 - (4.0 + 2.0)       # covered: [1, 5] and [8, 10]
    assert own[2] == 2.0 - 1.0                # only its own child counts
    assert own[3] == 3.0 and own[5] == 1.0    # leaves keep their duration


def test_recorder_links_parents_and_inherits_request_ids():
    rec = Recorder()
    with rec.span("op", rid=42):
        with rec.span("layer"):
            with rec.span("leaf"):
                pass
    leaf, layer, op = rec.spans
    assert (op.parent, layer.parent, leaf.parent) == (None, op.sid, layer.sid)
    assert {s.rid for s in rec.spans} == {42}


def test_recorder_keeps_threads_apart():
    rec = Recorder()
    barrier = threading.Barrier(2)

    def worker(rid: int) -> None:
        with rec.span("op", rid=rid):
            barrier.wait(timeout=5)
            with rec.span("inner"):
                pass

    threads = [threading.Thread(target=worker, args=(r,)) for r in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    ops = {s.rid: s.sid for s in rec.spans if s.name == "op"}
    for inner in (s for s in rec.spans if s.name == "inner"):
        assert inner.parent == ops[inner.rid]


def test_wrapped_callable_records_and_returns():
    rec = Recorder()
    double = rec.wrap(lambda x: 2 * x, "double", attrs_of=lambda x: {"x": x})
    assert double(21) == 42
    (span,) = rec.spans
    assert span.name == "double" and span.attrs == {"x": 21} and span.duration >= 0
