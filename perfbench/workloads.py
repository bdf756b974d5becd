"""The benchmark's workloads: set-up, one timed pass, and the check of every
output against the pins in ``pins.json``.

All workloads are closed loop with one client: a pass starts when the
previous one has returned.  The Monte Carlo workloads take their inputs from
the workload seed; ``tables-all`` is deterministic and ignores it.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from eaqldpc import cli, eaqecc, geometry, simulator

# Seeds fold onto this many pinned input sets, so that every seed verifies.
SEED_SLOTS = 16


@dataclass
class PassResult:
    seconds: float
    attempted: int
    failed: int
    unverified: int = 0
    raised: bool = False
    outputs: object = None  # what the pass produced, for the trace cross-check
    notes: list[str] = field(default_factory=list)


def compare(got: list, pinned: list | None) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, unverified, notes) for outputs ``got`` against
    ``pinned``; without a pin every output is unverified, never passed."""
    if pinned is None:
        return len(got), 0, len(got), ["unverified: no pin for this input"]
    notes = [f"op {i}: got {g!r}, pinned {p!r}"
             for i, (g, p) in enumerate(zip(got, pinned)) if g != p]
    failed = len(notes)
    if len(got) != len(pinned):
        failed += abs(len(got) - len(pinned))
        notes.append(f"{len(got)} outputs against {len(pinned)} pinned")
    return max(len(got), len(pinned)), failed, 0, notes


@dataclass(frozen=True)
class McWorkload:
    """``estimate_bler`` on one design code over a fixed sweep."""

    name: str
    kind: str
    m: int
    q: int
    orientation: str
    f_ms: tuple[float, ...]
    trials: int  # per sweep point and pass
    workers: int
    batch_size: int = 2048
    warmup_passes: int = 0  # untimed passes before a run's timed ones

    def expected_ops(self, pins: dict) -> int:
        return len(self.f_ms)

    @property
    def trials_per_pass(self) -> int:
        return self.trials * len(self.f_ms)

    def pin_key(self) -> dict:
        """Everything the pinned counts depend on besides the seed slot."""
        return {"code": f"{self.kind}({self.m},{self.q})/{self.orientation}",
                "f_ms": list(self.f_ms), "trials": self.trials, "seed_slots": SEED_SLOTS}

    def setup(self):
        design = geometry.build_geometry(self.kind, self.m, self.q)
        H = eaqecc.oriented_matrix(design.structure, self.orientation)
        simulator.CodeInstance(H, name=self.name)
        return H

    def execute(self, H, seed: int, work_dir: Path) -> tuple[float, list[int]]:
        config = simulator.SimConfig(
            f_m_values=self.f_ms, trials=self.trials, seed=seed % SEED_SLOTS,
            workers=self.workers, batch_size=self.batch_size,
        )
        t0 = time.perf_counter()
        records = simulator.estimate_bler(H, config, name=self.name)
        return time.perf_counter() - t0, [r.block_errors for r in records]

    def check(self, errors: list[int], seed: int, pins: dict):
        entry = pins.get(self.name)
        pinned = None
        if entry is not None and entry["key"] == self.pin_key():
            pinned = entry["block_errors"].get(str(seed % SEED_SLOTS))
        return compare(errors, pinned)

    def record_pins(self, H, work_dir: Path) -> dict:
        counts = {str(slot): self.execute(H, slot, work_dir)[1] for slot in range(SEED_SLOTS)}
        return {"key": self.pin_key(), "block_errors": counts}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def clear_library_caches():
    """Empty the library's functools caches, so that every pass does the
    same work (wrapped functions are followed to the cache they wrap)."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("eaqldpc"):
            continue
        for value in vars(mod).values():
            while callable(value) and not hasattr(value, "cache_clear") \
                    and hasattr(value, "__wrapped__"):
                value = value.__wrapped__
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@dataclass(frozen=True)
class TablesWorkload:
    """``eaqldpc tables <ids> --out DIR`` in process; one op per table row."""

    name: str
    table_ids: tuple[str, ...]  # ("all",) or explicit ids

    trials_per_pass = 0
    warmup_passes = 0  # one pass is longer than a run

    def ids(self) -> list[str]:
        return list(cli.TABLE_IDS) if self.table_ids == ("all",) else list(self.table_ids)

    def setup(self):
        return None

    def execute(self, _ctx, seed: int, work_dir: Path) -> tuple[float, dict]:
        out = work_dir / "tables"
        shutil.rmtree(out, ignore_errors=True)
        clear_library_caches()
        statuses: dict[str, list[str]] = {}
        compute = cli.compute_table

        def observed(table, cache=None):
            rows = compute(table, cache)
            statuses[table.upper()] = [r.status for r in rows]
            return rows

        cli.compute_table = observed
        t0 = time.perf_counter()
        try:
            rc = cli.main(["tables", *self.table_ids, "--out", str(out)])
        finally:
            cli.compute_table = compute
        seconds = time.perf_counter() - t0
        csvs = {}
        for t in self.ids():
            path = out / f"table_{t}.csv"
            csvs[t] = path.read_bytes() if path.exists() else b""
        return seconds, {
            "rc": rc,
            "statuses": statuses,
            "all_sha256": _sha(b"".join(csvs.values())),
            "csv_sha256": {t: _sha(b) for t, b in csvs.items()},
            "header_sha256": {t: _sha(b.split(b"\n", 1)[0]) for t, b in csvs.items()},
            "rows": {t: [_sha(line) for line in b.splitlines()[1:]] for t, b in csvs.items()},
        }

    def check(self, outputs: dict, seed: int, pins: dict):
        entry = pins.get(self.name)
        if entry is None or entry["tables"] != self.ids():
            return compare([row for t in self.ids() for row in outputs["rows"][t]], None)
        attempted = failed = 0
        notes = []
        if outputs["rc"] != 0:
            notes.append(f"tables exited with code {outputs['rc']}")
        for t in self.ids():
            got = list(outputs["rows"][t])
            if outputs["header_sha256"][t] != entry["header_sha256"][t]:
                got = [None] * len(got)  # columns moved: no row can be trusted
            status = outputs["statuses"].get(t, [])
            got = [g if i < len(status) and status[i] != "mismatch" else None
                   for i, g in enumerate(got)]
            a, f, _, n = compare(got, entry["rows"][t])
            attempted += a
            failed += f
            notes += [f"table {t} {note}" for note in n]
        if not failed and outputs["all_sha256"] != entry["all_sha256"]:
            failed, notes = 1, notes + ["concatenated CSV digest differs from its pin"]
        return attempted, failed, 0, notes

    def expected_ops(self, pins: dict) -> int:
        entry = pins.get(self.name)
        return sum(len(r) for r in entry["rows"].values()) if entry else 1

    def record_pins(self, _ctx, work_dir: Path) -> dict:
        _, outputs = self.execute(None, 0, work_dir)
        bad = [t for t, st in outputs["statuses"].items() if "mismatch" in st]
        if outputs["rc"] != 0 or bad:
            raise RuntimeError(f"tables exited with {outputs['rc']}; mismatches in {bad}")
        return {"tables": self.ids(), **{k: outputs[k] for k in
                ("all_sha256", "csv_sha256", "header_sha256", "rows")}}


def run_pass(workload, ctx, seed: int, pins: dict, work_dir: Path) -> PassResult:
    """One timed pass, checked against the pins.  An exception fails every
    operation of the pass."""
    t0 = time.perf_counter()
    try:
        seconds, outputs = workload.execute(ctx, seed, work_dir)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ops = workload.expected_ops(pins)
        return PassResult(time.perf_counter() - t0, ops, ops, raised=True,
                          notes=["the pass raised"])
    attempted, failed, unverified, notes = workload.check(outputs, seed, pins)
    return PassResult(seconds, max(attempted, 1), failed, unverified,
                      outputs=outputs, notes=notes)


WORKLOADS = {
    w.name: w
    for w in (
        # criterion-6 regime: ~97% of syndromes nonzero, ~99% of those
        # converge at iteration 1, decode is most of each batch
        McWorkload("mc-anchor", "AG", 2, 16, "I", (0.02,), trials=4096, workers=1,
                   warmup_passes=1),
        # up the waterfall with a process pool per sweep point: many trials
        # run all 100 iterations and pool start-up is paid at every point
        McWorkload("mc-waterfall", "PG", 2, 16, "I", (0.035, 0.04, 0.045, 0.05),
                   trials=2048, workers=2, batch_size=1024),
        # every reference table: GF(2) ranks, weight enumeration, girth and
        # geometry construction, no decoder at all
        TablesWorkload("tables-all", ("all",)),
    )
}
