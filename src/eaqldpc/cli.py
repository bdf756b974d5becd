"""Command-line interface: design construction, code parameters, reference
table reproduction, alist export, and Monte Carlo simulation.

Machine-readable results go to stdout (or --out); progress and diagnostics go
to stderr.  Every artifact-producing invocation writes a run manifest
(<out>.manifest.json) capturing the command line, configuration, seed,
package/python versions and SHA-256 digests of the outputs.

Exit codes: 0 ok, 1 verification/diff failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__, formats
from .designs import (
    DesignError,
    build_sts,
    build_transversal_design,
    check_admissible,
    delete_subdesigns,
    develop_cyclic,
    tanner_girth,
    verify_partial_steiner,
    verify_steiner,
)
from .eaqecc import (
    assemble_params,
    family_params,
    normalize_orientation,
    oriented_matrix,
    type_label,
)
from .geometry import (
    AG,
    EG,
    PG,
    GeometryDesign,
    ag_hyperplane_spread,
    build_geometry,
    design_counts,
    pg_spread,
)
from .simulator import (
    CONVENTION_PER_PAULI,
    CONVENTION_TOTAL,
    SimConfig,
    WorkerDiedError,
    estimate_bler,
)
from .tables import TABLE_IDS, ConstructionCache, compute_table, diff_report, rows_to_csv

USAGE_ERROR = 2
CHECK_FAILED = 1
# builds refused before any work: a geometry whose v x b incidence matrix has
# more cells (64 MiB as packed bits; PG(2,64) has about 17.3 M, AG(3,16)
# 286 M), and an STS, transversal design or cyclic development on more points
# (STS(4095) has 2.8 M blocks, TD(2,2048) 4.2 M)
MAX_INCIDENCE_CELLS = 1 << 29
MAX_POINTS = 1 << 12


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_manifest(out_paths: list[Path], args: argparse.Namespace, extra: dict | None = None):
    if not out_paths:
        return
    manifest = {
        "command": sys.argv,
        "config": {k: v for k, v in vars(args).items() if k != "func" and not callable(v)},
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "outputs": {str(p): _sha256(p) for p in out_paths if p.exists()},
    }
    if extra:
        manifest.update(extra)
    mpath = out_paths[0].with_suffix(out_paths[0].suffix + ".manifest.json")
    mpath.write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    print(f"manifest: {mpath}", file=sys.stderr)


def _emit(args, write) -> None:
    """Call ``write(fh)`` on the --out file, then write its manifest, or on
    stdout, so the output is formatted straight into its destination."""
    if args.out:
        path = Path(args.out)
        with path.open("w") as fh:
            write(fh)
        write_manifest([path], args)
    else:
        write(sys.stdout)


def _geometry_args(parser: argparse.ArgumentParser):
    parser.add_argument("--pg", nargs=2, type=int, metavar=("M", "Q"))
    parser.add_argument("--ag", nargs=2, type=int, metavar=("M", "Q"))
    parser.add_argument("--eg", nargs=2, type=int, metavar=("M", "Q"))


def _pick_one(args, flags):
    """(flag, value) of the one of ``flags`` not None (so ``--sts 0`` reaches
    ``build_sts``'s own message); none or several exit 2."""
    chosen = [(f, getattr(args, f)) for f in flags if getattr(args, f) is not None]
    if len(chosen) != 1:
        raise SystemExit2(f"choose exactly one of {'/'.join('--' + f for f in flags)}")
    return chosen[0]


def _pick_geometry(args):
    kind, (m, q) = _pick_one(args, ("pg", "ag", "eg"))
    return kind.upper(), m, q


class SystemExit2(SystemExit):
    def __init__(self, msg: str):
        print(f"error: {msg}", file=sys.stderr)
        super().__init__(USAGE_ERROR)


def _build_geometry(args) -> GeometryDesign:
    """The geometry of --pg/--ag/--eg M Q, refused up front when its
    incidence matrix would hold more than ``MAX_INCIDENCE_CELLS`` cells."""
    kind, m, q = _pick_geometry(args)
    if m >= 2 and q >= 2:  # smaller ones fail in the build with its own message
        cells = None  # past q^m >= 2^1024 points, not worth counting
        if m * (q.bit_length() - 1) < 1024:
            v, b = design_counts(kind, m, q)[:2]
            cells = v * b
        if cells is None or cells > MAX_INCIDENCE_CELLS:
            raise SystemExit2(f"{kind}({m},{q}) has {cells or 'more than 2^1024'} incidence "
                              f"cells (v*b), over the cap of {MAX_INCIDENCE_CELLS}")
    return build_geometry(kind, m, q)


def _check_points(what: str, v: int) -> None:
    if v > MAX_POINTS:
        raise SystemExit2(f"{what} has v = {v} points, over the cap of {MAX_POINTS}")


# --- design ------------------------------------------------------------------

def cmd_design_build(args) -> int:
    source = _pick_one(args, ("sts", "td", "pg", "ag", "eg"))[0]
    if source == "sts":
        _check_points(f"STS({args.sts})", args.sts)
        S = build_sts(args.sts)
        mu = 3
        comments = [f"sts({args.sts})"]
    elif source == "td":
        mu, g = args.td
        if mu >= 2 and g >= 2:  # smaller ones fail in the build with its own message
            _check_points(f"TD({mu},{g})", mu * g)
        S = build_transversal_design(mu, g)
        comments = [f"td({mu},{g}) groups: " + " | ".join(
            ",".join(map(str, grp)) for grp in S.groups)]
        mu = None  # GDD, not a Steiner design
    else:
        design = _build_geometry(args)
        kind, m, q = design.kind, design.m, design.q
        S = design.structure
        mu = design.mu if kind != EG else None
        comments = [f"{kind.lower()}({m},{q})", "point coordinates:"]
        comments += [f"  {i}: {c}" for i, c in enumerate(design.point_coords)]
        if kind == EG:
            verify_partial_steiner(S, design.mu)
            print(f"verified: partial Steiner (pairs covered at most once), "
                  f"mu={design.mu}", file=sys.stderr)
    if mu is not None:
        params = verify_steiner(S, mu)
        print(f"verified: S(2,{params.mu},{params.v}) with b={params.b} r={params.r} "
              f"girth={tanner_girth(S)}", file=sys.stderr)
    _emit(args, lambda fh: formats.write_design(S, fh, comments=comments))
    return 0


def cmd_design_verify(args) -> int:
    with open(args.file) as fh:
        S = formats.read_design(fh)
    try:
        if not check_admissible(S.v, args.mu, 1):
            print(f"admissibility: FAILED — (v-1) mod (mu-1) and v(v-1) mod mu(mu-1) "
                  f"must vanish for (v,mu,lambda)=({S.v},{args.mu},1)", file=sys.stderr)
            return CHECK_FAILED
        params = verify_steiner(S, args.mu)
    except DesignError as e:
        print(f"verification FAILED: {e}", file=sys.stderr)
        return CHECK_FAILED
    print(f"OK: S(2,{params.mu},{params.v}) b={params.b} r={params.r} "
          f"girth={tanner_girth(S)}")
    return 0


def cmd_design_develop(args) -> int:
    bases = []
    if args.base_file:
        with open(args.base_file) as fh:
            v, bases = formats.read_base_blocks(fh)
        if args.v and args.v != v:
            raise SystemExit2(f"--v {args.v} disagrees with base file ({v})")
    else:
        if not args.v or not args.bases:
            raise SystemExit2("need --v and --bases (or --base-file)")
        v = args.v
        for part in args.bases.split(";"):
            bases.append(tuple(int(x) for x in part.split(",")))
    _check_points("cyclic development", v)
    S = develop_cyclic(v, bases)
    mu = S.arrays[0].shape[1] if S.b else 0
    try:
        params = verify_steiner(S, mu)
        print(f"verified: S(2,{params.mu},{params.v}) b={params.b} r={params.r}",
              file=sys.stderr)
    except DesignError as e:
        print(f"verification FAILED: {e}", file=sys.stderr)
        return CHECK_FAILED
    comments = [f"cyclic development v={v} bases={bases}"]
    _emit(args, lambda fh: formats.write_design(S, fh, comments=comments))
    return 0


def cmd_design_delete(args) -> int:
    design = _build_geometry(args)
    kind = design.kind
    if kind == PG:
        if args.spread_s is None:
            raise SystemExit2("--spread-s S required for PG spreads")
        spread = pg_spread(design, args.spread_s)
    elif kind == AG:
        spread = ag_hyperplane_spread(design)
    else:
        raise SystemExit2("subdesign deletion applies to PG/AG designs")
    folded = delete_subdesigns(design.structure, spread, args.count)
    print(f"deleted {args.count} of {len(spread.parts)} spread parts: "
          f"{design.structure.b} -> {folded.b} blocks", file=sys.stderr)
    _emit(args, lambda fh: formats.write_design(folded, fh, comments=[folded.provenance]))
    return 0


# --- code --------------------------------------------------------------------

def _load_structure(args):
    """(design-or-structure, label) from --pg/--ag/--eg or --design FILE."""
    if _pick_one(args, ("design", "pg", "ag", "eg"))[0] == "design":
        with open(args.design) as fh:
            S = formats.read_design(fh)
        return S, Path(args.design).name
    design = _build_geometry(args)
    return design, f"{design.kind.lower()}({design.m},{design.q})"


def _load_matrix(args, orientation: str):
    """(H, label): the parity-check matrix of --pg/--ag/--eg or --design FILE."""
    design, label = _load_structure(args)
    structure = design.structure if isinstance(design, GeometryDesign) else design
    return oriented_matrix(structure, orientation), label


def cmd_code_params(args) -> int:
    orientation = normalize_orientation(args.type)
    if args.family:  # one source, and it must be a geometry
        _pick_one(args, ("design", "pg", "ag", "eg"))
        kind_s, m_v, q_v = _pick_geometry(args)
        params = family_params(kind_s, orientation, m_v, q_v)
    else:
        design, label = _load_structure(args)
        params = assemble_params(design, orientation)
        if args.design:
            kind_s, m_v, q_v = label, "", ""
        else:
            kind_s, m_v, q_v = design.kind, design.m, design.q
    header = "kind,orientation,m,q,n,k,d_status,d_lower,d_upper,c,rank_h,girth,rate,net_rate\n"
    row = (
        f"{kind_s},{type_label(orientation)},{m_v},{q_v},{params.n},{params.k},"
        f"{params.d.status},{params.d.lower},{params.d.upper},{params.c},{params.rank_h},"
        f"{params.girth},{float(params.rate):.4f},{float(params.net_rate):.4f}\n"
    )
    _emit(args, lambda fh: fh.write(header + row))
    return 0


def cmd_code_distance(args) -> int:
    orientation = normalize_orientation(args.type)
    design, label = _load_structure(args)
    d = assemble_params(design, orientation).d
    print(f"{label} type {type_label(orientation)}: d status={d.status} "
          f"lower={d.lower} upper={d.upper} certified={d.certified}")
    for s in d.sources:
        print(f"  source: {s}")
    if d.witness:
        print(f"  witness support: {list(d.witness)}")
    return 0


def cmd_code_export_alist(args) -> int:
    orientation = normalize_orientation(args.type)
    H, label = _load_matrix(args, orientation)
    _emit(args, lambda fh: formats.write_alist(H, fh))
    print(f"alist: {label} type {type_label(orientation)} "
          f"n={H.cols} m={H.rows}", file=sys.stderr)
    return 0


# --- tables ------------------------------------------------------------------

def cmd_tables(args) -> int:
    ids = TABLE_IDS if args.table == ["all"] else [t.upper() for t in args.table]
    for t in ids:
        if t not in TABLE_IDS:
            raise SystemExit2(f"unknown table {t}; valid: {', '.join(TABLE_IDS)} or 'all'")
    cache = ConstructionCache()
    all_ok = True
    outputs = []
    records = []
    for t in ids:
        t0 = time.time()
        rows = compute_table(t, cache)
        records += [{"table": r.table, "row": r.label, "distance_sources": list(r.sources),
                     "seconds": round(r.seconds, 4)} for r in rows]
        csv = rows_to_csv(rows)
        report = diff_report(rows)
        bad = [r for r in rows if r.status == "mismatch"]
        # rows per distance status, for the tables that have a d column
        d_counts = sorted(Counter(r.computed["d_status"] for r in rows
                                  if "d_status" in r.computed).items())
        d_note = ", d: " + ", ".join(f"{n} {s}" for s, n in d_counts) if d_counts else ""
        all_ok &= not bad
        if args.out:
            path = Path(args.out) / f"table_{t}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(csv)
            outputs.append(path)
        else:
            sys.stdout.write(csv)
        if report:
            print(report, file=sys.stderr)
        print(
            f"table {t}: {len(rows)} rows, {len(bad)} mismatches"
            f"{d_note} ({time.time() - t0:.1f}s)",
            file=sys.stderr,
        )
    if outputs:
        write_manifest(outputs, args, {"rows": records})
    return 0 if all_ok else CHECK_FAILED


# --- sim ---------------------------------------------------------------------

def cmd_sim(args) -> int:
    orientation = normalize_orientation(args.type)
    H, label = _load_matrix(args, orientation)
    config = SimConfig(
        f_m_values=tuple(float(x) for x in args.fm.split(",")),
        trials=args.trials,
        seed=args.seed,
        max_iter=args.max_iter,
        prior_override=args.prior,
        convention=args.convention,
        exact_recovery=args.exact_recovery,
        workers=args.threads,
    )
    records = estimate_bler(H, config, name=label)
    lines = [
        f"# code={label} type={type_label(orientation)} n={H.cols} checks={H.rows} "
        f"seed={args.seed} trials={args.trials} max_iter={args.max_iter} "
        f"convention={args.convention} accounting="
        f"{'exact-recovery' if args.exact_recovery else 'stabilizer-equivalent'}",
        "f_m,trials,errors,bler,ci_low,ci_high",
    ]
    for r in records:
        lines.append(
            f"{r.f_m},{r.trials},{r.block_errors},{r.bler:.6e},{r.ci_low:.6e},{r.ci_high:.6e}"
        )
        print(
            f"f_m={r.f_m}: {r.block_errors}/{r.trials} bler={r.bler:.3e} "
            f"[{r.ci_low:.2e}, {r.ci_high:.2e}] ({r.wall_time:.1f}s)",
            file=sys.stderr,
        )
    _emit(args, lambda fh: fh.write("\n".join(lines) + "\n"))
    return 0


# --- parser ------------------------------------------------------------------

def _global_flags(parser: argparse.ArgumentParser, top: bool):
    # accepted both before and after the subcommand; the later wins
    default = dict(seed=1, threads=1, out=None)
    kw = (lambda k: {"default": default[k]}) if top else (lambda k: {"default": argparse.SUPPRESS})
    parser.add_argument("--seed", type=int, help="RNG seed", **kw("seed"))
    parser.add_argument("--threads", type=int, help="worker processes", **kw("threads"))
    parser.add_argument("--out", type=str, help="output file/directory", **kw("out"))


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="eaqldpc", description=__doc__)
    _global_flags(p, top=True)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="construct/verify/transform designs")
    dsub = d.add_subparsers(dest="subcommand", required=True)

    b = dsub.add_parser("build", help="build a named design")
    _geometry_args(b)
    b.add_argument("--sts", type=int, metavar="V")
    b.add_argument("--td", nargs=2, type=int, metavar=("MU", "G"))
    _global_flags(b, top=False)
    b.set_defaults(func=cmd_design_build)

    ver = dsub.add_parser("verify", help="verify a design file")
    ver.add_argument("file")
    ver.add_argument("--mu", type=int, required=True)
    _global_flags(ver, top=False)
    ver.set_defaults(func=cmd_design_verify)

    dev = dsub.add_parser("develop", help="cyclic development of base blocks")
    dev.add_argument("--v", type=int)
    dev.add_argument("--bases", type=str, help="semicolon-separated blocks, e.g. '0,1,4;0,2,7'")
    dev.add_argument("--base-file", type=str)
    _global_flags(dev, top=False)
    dev.set_defaults(func=cmd_design_develop)

    dele = dsub.add_parser("delete", help="delete spread subdesigns")
    _geometry_args(dele)
    dele.add_argument("--spread-s", type=int, default=None)
    dele.add_argument("--count", type=int, required=True)
    _global_flags(dele, top=False)
    dele.set_defaults(func=cmd_design_delete)

    c = sub.add_parser("code", help="derive code parameters / exports")
    csub = c.add_subparsers(dest="subcommand", required=True)

    par = csub.add_parser("params", help="[[n,k,d;c]] parameter CSV row")
    _geometry_args(par)
    par.add_argument("--design", type=str)
    par.add_argument("--type", required=True, help="I (block-by-point) or II (point-by-block)")
    par.add_argument("--family", action="store_true", help="closed-form only, no matrix")
    _global_flags(par, top=False)
    par.set_defaults(func=cmd_code_params)

    dist = csub.add_parser("distance", help="distance verdict with sources")
    _geometry_args(dist)
    dist.add_argument("--design", type=str)
    dist.add_argument("--type", required=True)
    _global_flags(dist, top=False)
    dist.set_defaults(func=cmd_code_distance)

    al = csub.add_parser("export-alist", help="export H in alist format")
    _geometry_args(al)
    al.add_argument("--design", type=str)
    al.add_argument("--type", required=True)
    _global_flags(al, top=False)
    al.set_defaults(func=cmd_code_export_alist)

    t = sub.add_parser("tables", help="recompute reference tables and diff")
    t.add_argument("table", nargs="+", help=f"table ids ({', '.join(TABLE_IDS)}) or 'all'")
    _global_flags(t, top=False)
    t.set_defaults(func=cmd_tables)

    s = sub.add_parser("sim", help="depolarizing-channel BLER Monte Carlo")
    _geometry_args(s)
    s.add_argument("--design", type=str)
    s.add_argument("--type", required=True)
    s.add_argument("--fm", required=True, help="comma-separated f_m values")
    s.add_argument("--trials", type=int, default=10000)
    s.add_argument("--max-iter", type=int, default=100)
    s.add_argument("--prior", type=float, default=None, help="override decoder prior")
    s.add_argument(
        "--convention",
        choices=[CONVENTION_TOTAL, CONVENTION_PER_PAULI],
        default=CONVENTION_TOTAL,
        help="f_m = total depolarizing probability (default) or per-Pauli probability",
    )
    s.add_argument("--exact-recovery", action="store_true",
                   help="count success only on residual == 0 (no degeneracy credit)")
    _global_flags(s, top=False)
    s.set_defaults(func=cmd_sim)
    return p


def _warn_one_line(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warn_one_line
            return args.func(args)
    except SystemExit2 as e:
        return int(e.code)
    except DesignError as e:
        print(f"verification error: {e}", file=sys.stderr)
        return CHECK_FAILED
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except WorkerDiedError:
        print("error: a worker process died; no result", file=sys.stderr)
        return CHECK_FAILED
    except KeyboardInterrupt:
        print("interrupted; no result", file=sys.stderr)
        return CHECK_FAILED
    except MemoryError:  # numpy's allocation errors and a worker's re-raised one too
        print("error: out of memory; no result", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
