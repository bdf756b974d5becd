"""Design interchange and alist round-trips, and malformed input files."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqldpc import formats
from eaqldpc.designs import DesignError
from eaqldpc.eaqecc import POINT_BY_BLOCK, oriented_matrix
from eaqldpc.gf2 import BitMatrix


def test_design_roundtrip_byte_identical(fano):
    buf = io.StringIO()
    formats.write_design(fano.structure, buf)
    text = buf.getvalue()
    S = formats.read_design(io.StringIO(text))
    buf2 = io.StringIO()
    formats.write_design(S, buf2)
    assert buf2.getvalue() == text
    assert S.arrays[0].tolist() == fano.structure.arrays[0].tolist() and S.v == fano.structure.v


def test_design_reader_skips_comments(fano):
    buf = io.StringIO()
    formats.write_design(fano.structure, buf, comments=["fano", "coords: ..."])
    S = formats.read_design(io.StringIO(buf.getvalue()))
    assert S.arrays[0].tolist() == fano.structure.arrays[0].tolist()


def test_design_reader_rejects_bad_count():
    with pytest.raises(DesignError):
        formats.read_design(io.StringIO("3 2\n0 1 2\n"))


def test_base_block_file():
    v, bases = formats.read_base_blocks(io.StringIO("13\n0 1 4\n0 2 7\n"))
    assert v == 13 and bases == [(0, 1, 4), (0, 2, 7)]


def test_alist_fano(fano):
    H = oriented_matrix(fano.structure, POINT_BY_BLOCK)
    buf = io.StringIO()
    formats.write_alist(H, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "7 7"
    assert lines[1] == "3 3"  # regular degrees
    back = formats.read_alist(io.StringIO(buf.getvalue()))
    assert back == H


def test_alist_roundtrip_irregular(cache):
    # deletion makes the matrix slightly irregular: exercises zero padding
    from eaqldpc.designs import delete_subdesigns

    design = cache.geometry("PG", 5, 2)
    spread = cache.spread("PG", 5, 2, 2)
    folded = delete_subdesigns(design.structure, spread, 1)
    H = oriented_matrix(folded, POINT_BY_BLOCK)
    buf = io.StringIO()
    formats.write_alist(H, buf)
    assert formats.read_alist(io.StringIO(buf.getvalue())) == H


def test_alist_rejects_corrupt():
    with pytest.raises(DesignError):
        formats.read_alist(io.StringIO("4 2\n1 2\n1 1 1 1\n2 2\n1\n2\n1\n2\n"))


@pytest.mark.parametrize("text", [
    "1 2\n1 1\n1\n1 0\n5\n1\n0\n",  # column index above m
    "1 2\n1 1\n1\n1 0\n-1\n1\n0\n",  # negative column index
    "1 2\n1 1\n1\n1 0\n1\n3\n0\n",  # row index above n
    "1 1\n2 2\n2\n2\n1 1\n1 1\n",  # index repeated: degree 2, weight 1
    "-1 2\n1 1\n",  # negative size
    "1 1\n-1 1\n0\n0\n",  # negative maximum degree
])
def test_alist_rejects_malformed(text):
    with pytest.raises(DesignError):
        formats.read_alist(io.StringIO(text))


def test_design_reader_rejects_negative_v():
    with pytest.raises(DesignError):
        formats.read_design(io.StringIO("-1 0\n"))


@st.composite
def bit_matrices(draw):
    """Small H of any shape, zero rows and columns and irregular degrees
    included."""
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    bits = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BitMatrix(rows, cols, bits)


def _alist_text(H):
    buf = io.StringIO()
    formats.write_alist(H, buf)
    return buf.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bit_matrices())
def test_alist_roundtrip_random(H):
    assert formats.read_alist(io.StringIO(_alist_text(H))) == H


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bit_matrices(), st.data())
def test_alist_malformed_streams_raise_value_errors(H, data):
    """Corrupt a valid stream by replacing, dropping or inserting tokens; the
    reader returns a matrix or raises DesignError/ValueError, nothing else."""
    tokens = _alist_text(H).split()
    for _ in range(data.draw(st.integers(1, 3))):
        pos = data.draw(st.integers(0, len(tokens)))
        token = str(data.draw(st.one_of(st.integers(-3, 12), st.integers(-(10**12), 10**12))))
        action = data.draw(st.sampled_from(["replace", "drop", "insert"]))
        if action == "insert" or pos == len(tokens):
            tokens.insert(pos, token)
        elif action == "replace":
            tokens[pos] = token
        else:
            del tokens[pos]
    try:
        back = formats.read_alist(io.StringIO(" ".join(tokens)))
    except ValueError:  # DesignError included
        return
    assert isinstance(back, BitMatrix)
