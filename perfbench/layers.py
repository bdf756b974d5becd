"""Which library calls the traced run wraps, and how their spans become the
per-layer metrics.

Every wrapper sits outside the library: a public function is replaced in
each ``eaqldpc`` module that holds it (so ``from .x import f`` call sites are
covered too) and put back when the traced pass ends.  ``eaqldpc.formats`` is
on no hot path of any workload and is left unwrapped on purpose.
"""

from __future__ import annotations

import inspect
import sys
import time
import weakref

import numpy as np

from eaqldpc import cli, decoder, designs, eaqecc, fields, geometry, gf2, simulator, tables
from spans import SpanTree, Tracer, traced

TABLE_IDS = tuple(tables.TABLE_IDS)

# (module, function) pairs wrapped by name; the span name is "<module>.<function>"
FUNCTIONS = [
    (simulator, "estimate_bler"),
    (simulator, "evaluate_batch"),
    (gf2, "weight_distribution"),
    (gf2, "rank"),
    (gf2, "rank_value"),
    (gf2, "gram_rank"),
    (gf2, "nullspace_basis"),
    (gf2, "min_distance"),
    (designs, "tanner_girth"),
    (geometry, "build_geometry"),
    (geometry, "pg_spread"),
    (geometry, "ag_hyperplane_spread"),
    (geometry, "dual_hyperoval"),
    (geometry, "hyperbolic_quadric"),
    (geometry, "parallel_class_pair"),
    (geometry, "affine_hyperoval_trace"),
    (geometry, "point_hyperoval"),
    (geometry, "validate_witness"),
    (fields, "make_field"),
    (fields, "field_for_order"),
    (eaqecc, "distance_verdict"),
    (eaqecc, "css_from_parity_check"),
    (tables, "compute_table"),
    (cli, "main"),
]

RANK_SPANS = {"gf2.rank", "gf2.rank_value", "gf2.gram_rank"}
SPREAD_SPANS = {"geometry.pg_spread", "geometry.ag_hyperplane_spread"}
WITNESS_SPANS = {
    "geometry.dual_hyperoval", "geometry.hyperbolic_quadric", "geometry.parallel_class_pair",
    "geometry.affine_hyperoval_trace", "geometry.point_hyperoval", "geometry.validate_witness",
}
FIELD_SPANS = {"fields.make_field", "fields.field_for_order"}

# decoder iteration histogram: (metric suffix, lowest, highest) iterations
ITER_BUCKETS = [("0", 0, 0), ("1", 1, 1), ("2", 2, 2), ("3", 3, 3), ("4-7", 4, 7),
                ("8-15", 8, 15), ("16-31", 16, 31), ("32-63", 32, 63), ("64-99", 64, 99),
                ("ge100", 100, None)]

COMPONENTS = ("x", "z")  # evaluate_batch decodes the X part first, then the Z part


def replace_everywhere(original, replacement) -> list[tuple[object, str]]:
    """Point every loaded eaqldpc module attribute bound to ``original`` at
    ``replacement``; return the (module, attribute) pairs changed."""
    changed = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "eaqldpc" or name.startswith("eaqldpc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _decode_counts(conv: np.ndarray, iters: np.ndarray) -> dict:
    counts = {
        "trials": int(conv.size),
        "nonzero": int((iters > 0).sum()),
        "iterations": int(iters.sum()),
        "iter1_converged": int(((iters == 1) & conv).sum()),
        "nonconverged": int((~conv).sum()),
        "wasted_iterations": int(iters[~conv].sum()),
    }
    for label, lo, hi in ITER_BUCKETS:
        sel = iters >= lo if hi is None else (iters >= lo) & (iters <= hi)
        counts[f"hist.{label}"] = int(sel.sum())
    return counts


class Instrumentation:
    """Installs the wrappers on enter and restores the library on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._twins: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._undo: list[tuple[object, str, object]] = []

    # -- per-call counters ---------------------------------------------------

    def _on_return(self, qualname: str, fn):
        if qualname == "simulator.estimate_bler":
            def count(frame, args, kwargs, result):
                return {"workers": max(1, _bound(fn, args, kwargs)["config"].workers),
                        "block_errors": sum(r.block_errors for r in result)}
            return count
        if qualname == "simulator.evaluate_batch":
            def count(frame, args, kwargs, result):
                return self._batch_counts(frame, _bound(fn, args, kwargs), result)
            return count
        if qualname == "gf2.weight_distribution":
            def count(frame, args, kwargs, result):
                return {"vectors": 1 << len(_bound(fn, args, kwargs)["basis"])}
            return count
        return None

    @staticmethod
    def _batch_counts(frame, arguments, result) -> dict:
        decodes = frame.scratch.get("decodes", [])
        rowspace = frame.scratch.get("rowspace", [])
        counts = {"trials": arguments["trial_hi"] - arguments["trial_lo"],
                  "block_errors": int(result)}
        if len(decodes) == len(COMPONENTS) and len(rowspace) == len(COMPONENTS):
            fails = np.zeros(counts["trials"], dtype=bool)
            for comp, (conv, _), in_rs in zip(COMPONENTS, decodes, rowspace):
                counts[f"detected_{comp}"] = int((~conv).sum())
                counts[f"undetected_{comp}"] = int((conv & ~in_rs).sum())
                fails |= ~(conv & in_rs)
            counts["block_errors_from_masks"] = int(fails.sum())
        return counts

    # -- wrappers ------------------------------------------------------------

    def _traced_decode(self, original):
        tracer = self.tracer

        def decode(dec, syndromes, prior):
            frame = tracer.open("decoder.decode")
            try:
                est, conv, iters = original(dec, syndromes, prior)
            except BaseException:
                tracer.close(frame, {"raised": 1})
                raise
            end = time.perf_counter()
            tracer.close(frame, _decode_counts(conv, iters), end=end)
            # The twin is a sibling of the decode span, not a child, and is
            # excluded from the trace overhead.
            twin = self._twins.get(dec)
            if twin is None:
                setup = tracer.open("trace.twin_setup")
                twin = decoder.BatchDecoder(dec.graph, max_iter=1, clamp=dec.clamp)
                self._twins[dec] = twin
                tracer.close(setup, excluded=True)
            first = tracer.open("decoder.iter1")
            original(twin, syndromes, prior)
            tracer.close(first, excluded=True)
            batch = tracer.innermost("simulator.evaluate_batch")
            if batch is not None:
                batch.scratch.setdefault("decodes", []).append((conv, iters))
            return est, conv, iters

        return decode

    def _traced_rowspace(self, original):
        tracer = self.tracer

        def on_return(frame, args, kwargs, result):
            batch = tracer.innermost("simulator.evaluate_batch")
            if batch is not None:
                batch.scratch.setdefault("rowspace", []).append(result)
            return {"vectors": int(result.shape[0])}

        return traced(tracer, "simulator.rowspace", original, on_return)

    def _traced_syndromes(self, original):
        def on_return(frame, args, kwargs, result):
            return {"syndromes": int(result.shape[0]),
                    "zero": int((~result.any(axis=1)).sum())}

        return traced(self.tracer, "simulator.syndromes", original, on_return)

    def __enter__(self):
        for mod, attr in FUNCTIONS:
            original = getattr(mod, attr)
            qualname = f"{mod.__name__.split('.')[-1]}.{attr}"
            name = qualname
            if qualname == "tables.compute_table":
                name = lambda table, *a, **k: f"tables.table_{table.upper()}"  # noqa: E731
            wrapper = traced(self.tracer, name, original, self._on_return(qualname, original))
            for m, a in replace_everywhere(original, wrapper):
                self._undo.append((m, a, original))
        for cls, attr, make in (
            (decoder.BatchDecoder, "decode", self._traced_decode),
            (simulator.CodeInstance, "syndromes_of", self._traced_syndromes),
            (simulator.CodeInstance, "residual_in_row_space", self._traced_rowspace),
        ):
            original = cls.__dict__[attr]
            setattr(cls, attr, make(original))
            self._undo.append((cls, attr, original))
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()
        return False


# -- span records -> per-layer metrics --------------------------------------

def _count(records, key) -> int:
    return sum(r["counts"].get(key, 0) for r in records)


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pool_overhead(tree: SpanTree) -> float:
    """Sum over estimate_bler calls of wall time minus the evaluate_batch
    busy time divided by the number of workers."""
    busy: dict[str, float] = {}
    for rec in tree.named("simulator.evaluate_batch"):
        parent = tree.by_id.get(rec["parent"])
        while parent is not None and parent["name"] != "simulator.estimate_bler":
            parent = tree.by_id.get(parent["parent"])
        if parent is not None:
            busy[parent["id"]] = busy.get(parent["id"], 0.0) + tree.duration(rec)
    return sum(tree.duration(e) - busy.get(e["id"], 0.0) / e["counts"].get("workers", 1)
               for e in tree.named("simulator.estimate_bler"))


def excluded_seconds(records: list[dict], main_pid: int, workers: int) -> float:
    """Benchmark-only time inside a traced pass: excluded spans of the main
    process, plus those of pool workers divided by the worker count."""
    total = 0.0
    for rec in records:
        if rec["excluded"]:
            share = 1.0 if rec["pid"] == main_pid else 1.0 / max(1, workers)
            total += (rec["end"] - rec["start"]) * share
    return total


def taxonomy_consistent(records: list[dict]) -> bool:
    """Every traced batch's failure split adds up to the block errors that
    ``evaluate_batch`` returned."""
    return all(r["counts"].get("block_errors_from_masks") == r["counts"]["block_errors"]
               for r in records
               if r["name"] == "simulator.evaluate_batch" and "raised" not in r["counts"])


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics (without trace.overhead_share) from one traced pass."""
    tree = SpanTree(records)
    batches = tree.named("simulator.evaluate_batch")
    decodes = tree.named("decoder.decode")
    syndromes = tree.named("simulator.syndromes")
    m: dict[str, float] = {}

    m["simulator.sample_s"] = tree.self_time_sum("simulator.evaluate_batch")
    m["simulator.syndrome_s"] = tree.group_time("simulator.syndromes")
    m["simulator.rowspace_s"] = tree.group_time("simulator.rowspace")
    m["simulator.rowspace_vectors"] = _count(tree.named("simulator.rowspace"), "vectors")
    m["simulator.pool_overhead_s"] = _pool_overhead(tree)
    m["simulator.trials"] = _count(batches, "trials")
    m["simulator.block_errors"] = _count(batches, "block_errors")
    m["simulator.zero_syndrome_share"] = _share(_count(syndromes, "zero"),
                                                _count(syndromes, "syndromes"))
    for comp in COMPONENTS:
        m[f"simulator.detected_failures.{comp}"] = _count(batches, f"detected_{comp}")
        m[f"simulator.undetected_failures.{comp}"] = _count(batches, f"undetected_{comp}")

    decode_s = tree.group_time("decoder.decode")
    iter1_s = tree.group_time("decoder.iter1")
    iterations = _count(decodes, "iterations")
    m["decoder.decode_s"] = decode_s
    m["decoder.calls"] = len(decodes)
    m["decoder.trials"] = _count(decodes, "trials")
    m["decoder.iter1_s"] = iter1_s
    m["decoder.later_iters_s"] = decode_s - iter1_s
    m["decoder.iterations_total"] = iterations
    m["decoder.iter1_converged_share"] = _share(_count(decodes, "iter1_converged"),
                                                _count(decodes, "nonzero"))
    m["decoder.nonconverged"] = _count(decodes, "nonconverged")
    m["decoder.wasted_iteration_share"] = _share(_count(decodes, "wasted_iterations"),
                                                 iterations)
    for label, _, _ in ITER_BUCKETS:
        m[f"decoder.iter_hist.{label}"] = _count(decodes, f"hist.{label}")

    wd = tree.named("gf2.weight_distribution")
    m["gf2.weight_distribution_s"] = tree.group_time("gf2.weight_distribution")
    m["gf2.weight_distribution_calls"] = len(wd)
    m["gf2.vectors_enumerated"] = _count(wd, "vectors")
    m["gf2.rank_s"] = tree.group_time(RANK_SPANS)
    m["gf2.rank_calls"] = len(tree.named(RANK_SPANS))
    m["gf2.nullspace_s"] = tree.group_time("gf2.nullspace_basis")
    m["gf2.min_distance_s"] = tree.self_time_sum("gf2.min_distance")

    m["designs.tanner_girth_s"] = tree.group_time("designs.tanner_girth")
    m["designs.tanner_girth_calls"] = len(tree.named("designs.tanner_girth"))
    m["geometry.build_s"] = tree.group_time("geometry.build_geometry")
    m["geometry.spread_s"] = tree.group_time(SPREAD_SPANS)
    m["geometry.witness_s"] = tree.group_time(WITNESS_SPANS)
    m["fields.field_s"] = tree.group_time(FIELD_SPANS)
    m["eaqecc.distance_verdict_s"] = tree.self_time_sum("eaqecc.distance_verdict")
    m["eaqecc.css_params_s"] = tree.self_time_sum("eaqecc.css_from_parity_check")

    for tid in TABLE_IDS:
        m[f"tables.table_{tid}_s"] = tree.group_time(f"tables.table_{tid}")
    m["cli.self_s"] = tree.self_time_sum("cli.main")
    m["trace.spans"] = len(records)
    return m


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = layer_metrics([])
    names["trace.overhead_share"] = 0.0
    units = {}
    for name in names:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_share"):
            units[name] = "share"
        else:
            units[name] = "count"
    return units
