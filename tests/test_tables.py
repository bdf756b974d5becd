"""Table engine unit checks: rate renderers, errata annotations, CSV shape."""

import hashlib
from fractions import Fraction

import pytest

from eaqldpc import tables
from eaqldpc.designs import DesignError
from eaqldpc.tables import (
    ERRATA,
    TABLE_IDS,
    compute_table,
    diff_report,
    round4,
    rows_to_csv,
    trunc4,
)


def test_trunc4():
    assert trunc4(Fraction(53, 130)) == "0.4076"  # rounds to 0.4077; source truncates
    assert trunc4(Fraction(2053, 2850)) == "0.7203"
    assert trunc4(Fraction(110, 256)) == "0.4296"


def test_round4():
    assert round4(Fraction(238, 256)) == "0.9297"  # 0.9296875 rounds up
    assert round4(Fraction(539, 644)) == "0.8370"
    assert round4(Fraction(1, 3)) == "0.3333"


def test_errata_rows_annotated(cache):
    rows = compute_table("IX", cache)
    row = next(r for r in rows if r.computed["m"] == 5 and r.computed["q"] == 2)
    assert row.status == "ok"
    assert "erratum" in row.notes
    assert ("IX", 5, 2) in ERRATA


def test_csv_and_report_shapes(cache):
    rows = compute_table("XIII", cache)
    csv = rows_to_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0].startswith("table,row,")
    assert len(lines) == 1 + len(rows)
    assert diff_report(rows) == ""  # no mismatches, nothing to report


def test_unknown_table_raises(cache):
    with pytest.raises(ValueError):
        compute_table("XL", cache)


def test_deletion_table_closed_form_errors(cache, monkeypatch):
    """Only a DesignError from the closed form becomes an "n/a" cell; any
    other exception is a bug and propagates."""
    def broken(*args):
        raise TypeError("bug in expected_c")

    monkeypatch.setattr(tables, "expected_c", broken)
    with pytest.raises(TypeError, match="bug in expected_c"):
        compute_table("XIII", cache)

    def inapplicable(*args):
        raise DesignError("mixed parities")

    monkeypatch.setattr(tables, "expected_c", inapplicable)
    rows = compute_table("XIII", cache)
    assert rows and all(r.computed["c_formula"] == "n/a (mixed parities)" for r in rows)


# SHA-256 of rows_to_csv(compute_table(t)) for every table, recorded before
# the weight-enumeration, girth and pair-coverage kernels were rewritten.
FROZEN_CSV_SHA256 = {
    "I": "f15abf9b0062cb02f58eefcae81d224827fe6da3ffa46c3cf3ecd301a8f7cd62",
    "II": "036b7c0abf49d1385a9688be4c72860f66c9f835fd086a6e3f9e9dfb0a7396f1",
    "III": "96cfe9767d5015c8656340927c579eab376c9d3efcb8d7cdadb62f29ce35bf8e",
    "IV": "f39ed39c9956fc162710558d2aca2774567022ec0bce406116378beaae1e2c1d",
    "V": "ee8f7671e0995ad642106dad9684dc002d3f3a331f083a4726ddbce2a516c081",
    "VI": "0aaae307de2801a7fc246735ad6f823d3e9ba6350bedb0fbc3c24efadb96c11c",
    "VII": "6f1531b308d200904eab37cac3f2428d426e2a4c01a4087be3a2e267e78422af",
    "VIII": "2c4e72b958cdf59ecbba288ad91f4bfecb3946b7b6e8af2b624cf686b7bc46cb",
    "IX": "0eef37654c1f229084e859c14fcf0ec51322977bf8378c749ad2997b18197c01",
    "X": "14249cd8e1d54c655ab636462cff24f4e5b01419680880f002f1f2614aa38b2a",
    "XI": "30cb2a71de0da6499827ce89737e4f806a16e9845f4d3bd310819bed37d4c934",
    "XII": "7fbeea0d78b742b22a87385f0b18b9167d5a39045efebacdaba3652310956482",
    "XIII": "78b5b5de536d228f83ec05aed565389e2e3f5d96c4c7f160d7f07ac874d9f3e1",
}


def test_tables_csv_frozen(cache):
    assert list(FROZEN_CSV_SHA256) == TABLE_IDS
    got = {
        t: hashlib.sha256(rows_to_csv(compute_table(t, cache)).encode()).hexdigest()
        for t in TABLE_IDS
    }
    assert got == FROZEN_CSV_SHA256
