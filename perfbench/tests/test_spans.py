import pytest

from spans import Tracer, self_times


def rec(rid, parent, busy, calls=1):
    return {"id": rid, "parent": parent, "name": f"s{rid}", "start": 0.0, "end": busy,
            "busy": busy, "calls": calls, "error": False}


def test_self_time_subtracts_what_children_cover():
    records = [
        rec(1, None, 10.0),
        rec(2, 1, 3.0),
        rec(3, 1, 4.0, calls=5),  # folded leaf: five calls, 4 s in all
        rec(4, 2, 1.0),
        rec(5, None, 2.0),
    ]
    assert self_times(records) == {1: 3.0, 2: 2.0, 3: 4.0, 4: 1.0, 5: 2.0}


def test_self_time_never_negative():
    assert self_times([rec(1, None, 1.0), rec(2, 1, 1.5)])[1] == 0.0


def test_wrapper_records_parents_folds_repeated_leaves_and_flags_errors():
    tracer = Tracer()
    leaf = tracer.wrap("m.leaf", lambda x: x)

    def fail():
        raise ValueError("boom")

    failing = tracer.wrap("m.fail", fail)

    def outer_body(n):
        for k in range(n):
            leaf(k)
        with pytest.raises(ValueError):
            failing()
        return n

    outer = tracer.wrap("m.outer", outer_body)
    with tracer.span("op"):
        assert outer(4) == 4
    by_name = {r["name"]: r for r in tracer.records}
    assert set(by_name) == {"op", "m.outer", "m.leaf", "m.fail"}
    assert by_name["m.leaf"]["calls"] == 4
    assert by_name["m.leaf"]["parent"] == by_name["m.outer"]["id"]
    assert by_name["m.fail"]["error"] is True
    assert by_name["m.outer"]["parent"] == by_name["op"]["id"]
    assert by_name["op"]["parent"] is None
    selfs = self_times(tracer.records)
    outer = by_name["m.outer"]
    children = by_name["m.leaf"]["busy"] + by_name["m.fail"]["busy"]
    assert selfs[outer["id"]] == pytest.approx(outer["busy"] - children)


def test_install_wraps_definitions_and_by_name_imports_then_restores():
    from crashvol import cli, data_ingest, evaluation

    original = data_ingest.parse_monthly_csv
    assert cli.parse_monthly_csv is original
    tracer = Tracer(attrs={"evaluation.error_stats": lambda a, k: {"n": len(a[0])}})
    with tracer.installed():
        assert data_ingest.parse_monthly_csv is not original
        assert cli.parse_monthly_csv is data_ingest.parse_monthly_csv
        evaluation.error_stats([1.0, 2.0], [1.0, 2.5])
    assert data_ingest.parse_monthly_csv is original
    assert cli.parse_monthly_csv is original
    (span,) = [r for r in tracer.records if r["name"] == "evaluation.error_stats"]
    assert span["attrs"] == {"n": 2}
