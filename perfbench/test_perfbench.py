"""Tests of the benchmark harness at tiny sizes, through the code paths the
benchmark runs.

    python -m pytest -q perfbench
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checkout  # noqa: E402

assert checkout.use_checkout_source(), "needs the library source under src/"

import layers  # noqa: E402
import pytest  # noqa: E402
import spans  # noqa: E402
from workloads import McWorkload, TablesWorkload, run_pass  # noqa: E402

TINY = McWorkload("tiny", "PG", 2, 4, "I", (0.05, 0.12), trials=96, workers=1, batch_size=32)
TINY_POOL = McWorkload("tiny", "PG", 2, 4, "I", (0.05, 0.12), trials=96, workers=2,
                       batch_size=32)
TINY_TABLES = TablesWorkload("tiny-tables", ("XIII",))


def _mc_pins(workload, H, tmp_path, seed=0):
    _, errors = workload.execute(H, seed, tmp_path)
    return {workload.name: {"key": workload.pin_key(),
                            "block_errors": {str(seed): errors}}}


def _traced(workload, H, tmp_path, seed=0):
    tracer = spans.Tracer("test", tmp_path / f"spool-{os.urandom(4).hex()}")
    with layers.Instrumentation(tracer):
        result = run_pass(workload, H, seed, {}, tmp_path)
    return result, tracer.collect()


def test_correct_pin_passes_and_wrong_pin_fails_one_op(tmp_path):
    H = TINY.setup()
    pins = _mc_pins(TINY, H, tmp_path)
    good = run_pass(TINY, H, 0, pins, tmp_path)
    assert (good.attempted, good.failed, good.unverified) == (2, 0, 0)

    pins["tiny"]["block_errors"]["0"][1] += 1
    bad = run_pass(TINY, H, 0, pins, tmp_path)
    assert (bad.attempted, bad.failed, bad.unverified, bad.raised) == (2, 1, 0, False)


def test_seed_without_pin_is_unverified_not_passed(tmp_path):
    H = TINY.setup()
    pins = _mc_pins(TINY, H, tmp_path, seed=0)
    res = run_pass(TINY, H, 1, pins, tmp_path)
    assert (res.attempted, res.failed, res.unverified) == (2, 0, 2)


def test_exception_fails_every_op(tmp_path):
    broken = McWorkload("tiny", "PG", 2, 4, "I", (0.05, 4.0), trials=32, workers=1)
    res = run_pass(broken, broken.setup(), 0, {}, tmp_path)
    assert res.raised and res.failed == res.attempted == 2


def test_wrong_table_row_pin_fails_that_row(tmp_path):
    pins = {TINY_TABLES.name: TINY_TABLES.record_pins(None, tmp_path)}
    rows = pins[TINY_TABLES.name]["rows"]["XIII"]
    good = run_pass(TINY_TABLES, None, 0, pins, tmp_path)
    assert (good.attempted, good.failed) == (len(rows), 0)

    rows[1] = "0" * 64
    bad = run_pass(TINY_TABLES, None, 0, pins, tmp_path)
    assert (bad.attempted, bad.failed, bad.raised) == (len(rows), 1, False)


def _rec(span_id, name, start, end, parent=None, pid=1, excluded=False):
    return {"id": span_id, "name": name, "start": start, "end": end, "parent": parent,
            "pid": pid, "run": "t", "excluded": excluded, "counts": {}}


def test_self_time_is_span_minus_children():
    records = [
        _rec("a", "outer", 0.0, 10.0),
        _rec("b", "inner", 1.0, 3.0, "a"),
        _rec("c", "inner", 2.0, 4.0, "a", pid=2),  # overlaps b: another process
        _rec("d", "inner", 8.0, 12.0, "a", pid=2),  # clipped to the parent's end
        _rec("e", "leaf", 1.5, 2.5, "b"),
    ]
    tree = spans.SpanTree(records)
    assert tree.self_time(records[0]) == pytest.approx(10.0 - 3.0 - 2.0)
    assert tree.self_time(records[1]) == pytest.approx(1.0)
    assert tree.self_time_sum("inner") == pytest.approx(1.0 + 2.0 + 4.0)
    assert tree.group_time({"inner", "leaf"}) == pytest.approx(2.0 + 2.0 + 4.0)


def test_iter1_twin_is_a_sibling_outside_decode(tmp_path):
    H = TINY.setup()
    _, records = _traced(TINY, H, tmp_path)
    tree = spans.SpanTree(records)
    decodes = tree.named("decoder.decode")
    twins = tree.named("decoder.iter1")
    assert decodes and len(twins) == len(decodes)
    for twin in twins:
        assert tree.by_id[twin["parent"]]["name"] == "simulator.evaluate_batch"
        assert twin["excluded"]
        for dec in decodes:
            assert twin["end"] <= dec["start"] or twin["start"] >= dec["end"]
    for batch in tree.named("simulator.evaluate_batch"):  # nor in its parent's self time
        kids = tree.children[batch["id"]]
        assert {"decoder.decode", "decoder.iter1"} <= {c["name"] for c in kids}
        assert tree.self_time(batch) == pytest.approx(
            tree.duration(batch) - sum(map(tree.duration, kids)))
    metrics = layers.layer_metrics(records)
    assert metrics["decoder.decode_s"] == pytest.approx(sum(map(tree.duration, decodes)))
    assert metrics["decoder.iter1_s"] == pytest.approx(sum(map(tree.duration, twins)))
    excluded = [r for r in records if r["excluded"]]
    assert layers.excluded_seconds(records, os.getpid(), 1) == pytest.approx(
        sum(map(tree.duration, excluded)))


def _counts(metrics):
    units = layers.metric_units()
    return {k: v for k, v in metrics.items() if units.get(k) != "s"}


def test_traced_counts_repeat_and_match_untraced(tmp_path):
    H = TINY.setup()
    plain = run_pass(TINY, H, 0, {}, tmp_path)
    runs = [_traced(TINY, H, tmp_path) for _ in range(2)]
    runs.append(_traced(TINY_POOL, H, tmp_path))  # forked workers spool their spans
    counts = []
    for result, records in runs:
        assert result.outputs == plain.outputs
        assert layers.taxonomy_consistent(records)
        metrics = layers.layer_metrics(records)
        assert metrics["simulator.block_errors"] == sum(plain.outputs)
        counts.append(_counts(metrics))
    pool_pids = {r["pid"] for r in runs[2][1] if r["name"] == "simulator.evaluate_batch"}
    assert os.getpid() not in pool_pids and pool_pids
    assert counts[0] == counts[1]
    # pool workers rebuild the code (GF(2) work per worker); the trial
    # counts do not depend on the worker count
    per_trial = [{k: v for k, v in c.items() if k.startswith(("simulator.", "decoder."))}
                 for c in counts]
    assert per_trial[0] == per_trial[2]
    assert counts[0]["simulator.trials"] == TINY.trials_per_pass
    hist = sum(v for k, v in counts[0].items() if k.startswith("decoder.iter_hist."))
    assert hist == counts[0]["decoder.trials"] == 2 * TINY.trials_per_pass
