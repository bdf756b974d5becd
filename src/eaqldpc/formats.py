"""File formats: the design interchange format and MacKay alist matrices.

Design interchange: line 1 is ``v b``, then one block per line as
space-separated 0-based point indices.  Lines starting with ``#`` are
comments (the geometry writers emit the point coordinate table this way)
and are ignored by the reader.

Base-block files for cyclic development: line 1 is ``v``, then one base
block per line.

alist (sparse parity-check interchange): ``n m`` header, max column/row
degrees, per-column and per-row degree lists, then 1-based index lists
padded with zeros to the maximum degree (the customary dialect for
irregular codes).
"""

from __future__ import annotations

from typing import Iterable, TextIO

import numpy as np

from .designs import DesignError, IncidenceStructure
from .gf2 import BitMatrix


def write_design(S: IncidenceStructure, fh: TextIO, comments: Iterable[str] = ()) -> None:
    """Blocks of one size are written row by row from their array; mixed
    sizes are formatted per size group and written in block order."""
    for line in comments:
        fh.write(f"# {line}\n")
    fh.write(f"{S.v} {S.b}\n")
    if len(S.arrays) == 1:
        np.savetxt(fh, S.arrays[0], fmt="%d")
        return
    lines = [""] * S.b
    for A, at in S.located():
        for j, row in zip(at.tolist(), A.tolist()):
            lines[j] = " ".join(map(str, row)) + "\n"
    fh.writelines(lines)


def read_design(fh: TextIO) -> IncidenceStructure:
    lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise DesignError("empty design file")
    head = lines[0].split()
    if len(head) != 2:
        raise DesignError(f"bad header {lines[0]!r}: expected 'v b'")
    v, b = int(head[0]), int(head[1])
    blocks = []
    for ln in lines[1:]:
        blocks.append(tuple(sorted(int(x) for x in ln.split())))
    if len(blocks) != b:
        raise DesignError(f"header promises {b} blocks, file has {len(blocks)}")
    return IncidenceStructure(v=v, blocks=tuple(blocks), provenance="file")


def read_base_blocks(fh: TextIO) -> tuple[int, list[tuple[int, ...]]]:
    lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise DesignError("empty base-block file")
    v = int(lines[0].split()[0])
    bases = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
    if not bases:
        raise DesignError("no base blocks in file")
    return v, bases


def write_alist(H: BitMatrix, fh: TextIO) -> None:
    """H rows are checks, columns are bits; alist counts columns first."""
    n, m = H.cols, H.rows
    cols = [[i + 1 for i in s] for s in H.transpose().supports()]  # 1-based
    rows = [[j + 1 for j in s] for s in H.supports()]
    max_col = max((len(c) for c in cols), default=0)
    max_row = max((len(r) for r in rows), default=0)
    fh.write(f"{n} {m}\n")
    fh.write(f"{max_col} {max_row}\n")
    fh.write(" ".join(str(len(c)) for c in cols) + "\n")
    fh.write(" ".join(str(len(r)) for r in rows) + "\n")
    for c in cols:
        padded = c + [0] * (max_col - len(c))
        fh.write(" ".join(str(x) for x in padded) + "\n")
    for r in rows:
        padded = r + [0] * (max_row - len(r))
        fh.write(" ".join(str(x) for x in padded) + "\n")


def read_alist(fh: TextIO) -> BitMatrix:
    """Parse an alist file.  A malformed one raises DesignError, or ValueError
    on a token that is not an integer: negative sizes, a truncated stream, an
    index outside 1..m (column lists) or 1..n (row lists), an index repeated
    in one list, or degree and row lists that disagree with the column lists."""
    tokens = fh.read().split()
    pos = 0

    def take(k: int) -> list[int]:
        nonlocal pos
        out = [int(x) for x in tokens[pos : pos + k]]
        if len(out) != k:
            raise DesignError("truncated alist file")
        pos += k
        return out

    def indices(k: int, bound: int, where: str) -> list[int]:
        """The nonzero entries of the next k tokens, made 0-based."""
        live = [x for x in take(k) if x != 0]
        if not all(0 < x <= bound for x in live) or len(set(live)) != len(live):
            raise DesignError(f"{where}: index outside 1..{bound} or repeated")
        return [x - 1 for x in live]

    n, m, max_col, max_row = take(4)
    if min(n, m, max_col, max_row) < 0:
        raise DesignError("negative size in alist header")
    col_deg = take(n)
    row_deg = take(m)
    rows = [0] * m
    for j in range(n):
        live = indices(max_col, m, f"column {j}")
        if len(live) != col_deg[j]:
            raise DesignError(f"column {j}: degree list disagrees with entries")
        for i in live:
            rows[i] |= 1 << j
    # row lists are redundant; verify they agree
    for i in range(m):
        live = indices(max_row, n, f"row {i}")
        if len(live) != row_deg[i]:
            raise DesignError(f"row {i}: degree list disagrees with entries")
        if rows[i] != sum(1 << j for j in live):
            raise DesignError(f"row {i}: row list disagrees with column lists")
    return BitMatrix(m, n, rows)
