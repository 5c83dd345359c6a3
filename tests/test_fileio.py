"""Plain-text round trips for matrix and array files."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from butson import fileio
from butson.arrays import array_group
from butson.construct import block_count, construct_group_bh, find_normal_cyclic_generator, min_h
from butson.errors import ButsonError, InvalidParams, NotAGroup
from butson.groups import GroupRingElt, Unimodular, exponent_dtype, make_abelian, make_cyclic
from butson.verify import BhMatrix, materialize, verify_bh, verify_group_ring

from conftest import quaternion_table
from oracles import is_abelian, same_as


def sample_matrix():
    G = make_abelian([4])
    return materialize(G, GroupRingElt.from_exponents(G, 2, [0, 0, 0, 1]))


def test_matrix_round_trip(tmp_path):
    M = sample_matrix()
    path = tmp_path / "m.bh"
    path.write_text(fileio.format_matrix(M))
    back = fileio.read_matrix(path)
    assert back.h == M.h and back.exponents == M.exponents
    assert back.E.dtype == M.E.dtype == exponent_dtype(M.h) == np.uint8
    assert not back.E.flags.writeable and not M.E.flags.writeable
    assert same_as(back.group, M.group)
    assert verify_bh(back).ok


def test_matrix_format_frozen():
    text = fileio.format_matrix(sample_matrix())
    lines = text.splitlines()
    assert lines[0] == "bh h=2 order=4"
    assert lines[1] == "cyclic 4"
    # row g holds the coefficient exponents at g * k^{-1}
    assert lines[2] == "0 1 0 0"


def test_rewrite_is_byte_identical(tmp_path):
    M = sample_matrix()
    p1, p2 = tmp_path / "a.bh", tmp_path / "b.bh"
    p1.write_text(fileio.format_matrix(M))
    p2.write_text(fileio.format_matrix(fileio.read_matrix(p1)))
    assert p1.read_bytes() == p2.read_bytes()


def test_matrix_header_validation(tmp_path):
    path = tmp_path / "bad.bh"
    path.write_text("array h=2 dims=4\n0 0 0 1\n")
    with pytest.raises(ButsonError):
        fileio.read_matrix(path)
    path.write_text("bh h=2 order=5\ncyclic 4\n0 0 0 1\n")
    with pytest.raises(ButsonError):
        fileio.read_matrix(path)


def test_readers_name_the_file_on_bad_input(tmp_path):
    path = tmp_path / "bad.txt"
    for text, reader in [("", fileio.read_matrix), ("bh h=2\ncyclic 2\n0 0\n0 1\n", fileio.read_matrix),
                         ("bh h=-1 order=1\ncyclic 1\n0\n", fileio.read_matrix),
                         ("bh h=2 order=2\ncyclic 2\n0 x\n0 1\n", fileio.read_matrix),
                         ("bh h=2 order=2\ncyclic 2\n0 1 # note\n1 0\n", fileio.read_matrix),
                         ("array h=2\n0 1\n", fileio.read_array), ("array h 2\n", fileio.read_array),
                         (None, fileio.read_matrix), (None, fileio.read_array)]:
        if text is None:
            path.unlink(missing_ok=True)
        else:
            path.write_text(text)
        with pytest.raises(ButsonError, match=str(path)):
            reader(path)


_BAD_HEADERS = [  # text, reader, match
    ("bh h=2 h=2 order=2\ncyclic 2\n0 0\n0 1\n", fileio.read_matrix, "repeated header key$"),
    ("bh h=4 order=2 order=2\ncyclic 2\n0 0\n0 1\n", fileio.read_matrix, "repeated header key$"),
    ("array h=2 h=3 dims=2\n0 1\n", fileio.read_array, "repeated header key$"),
    ("array h=2 dims=2 dims=2\n0 1\n", fileio.read_array, "repeated header key$"),
    # a word that is not key=value, and a key left out, are named, not leaked as Python errors
    ("bh h=2 order=2 junk\ncyclic 2\n0 0\n0 1\n", fileio.read_matrix, "bad header field 'junk'$"),
    ("bh h=2 order=2=2\ncyclic 2\n0 0\n0 1\n", fileio.read_matrix, "bad header field 'order=2=2'$"),
    ("bh h=2\ncyclic 2\n0 0\n0 1\n", fileio.read_matrix, "missing header key 'order'$"),
    ("bh order=2\ncyclic 2\n0 0\n0 1\n", fileio.read_matrix, "missing header key 'h'$"),
    ("array h=2 dims=2 junk\n0 1\n", fileio.read_array, "bad header field 'junk'$"),
    ("array h=2\n0 1\n", fileio.read_array, "missing header key 'dims'$"),
    ("array dims=2\n0 1\n", fileio.read_array, "missing header key 'h'$"),
]


# ids name the input (text-reader), not the expected message
@pytest.mark.parametrize("text,reader,match",
                         [pytest.param(*case, id=f"{case[0]}-{case[1].__name__}") for case in _BAD_HEADERS])
def test_repeated_header_keys_are_rejected(tmp_path, text, reader, match):
    path = tmp_path / "dup.txt"
    path.write_text(text)
    with pytest.raises(ButsonError, match=match):
        reader(path)


@pytest.mark.parametrize("extra", ["0 1\n", "hello world\n", "1\n"])
def test_matrix_body_must_have_exactly_order_rows(tmp_path, extra):
    path = tmp_path / "m.bh"
    path.write_text(fileio.format_matrix(sample_matrix()) + extra)
    with pytest.raises(ButsonError, match="expected 4 rows of 4 exponents"):
        fileio.read_matrix(path)
    path.write_text("bh h=2 order=2\ncyclic 2\n0 0\n")
    with pytest.raises(ButsonError, match="expected 2 rows of 2 exponents"):
        fileio.read_matrix(path)


_BODY_CHARS = st.sampled_from(list("0123 -+#.\n\t")) | st.characters(blacklist_categories=("Cs",))
_TOKENS = (st.integers(-2**70, 2**70).map(str)
           | st.sampled_from(["1.0", "1.9", "1e3", "nan", "inf", "0x1", "1_0", "+-1", "\u0661", "#"]))
# two rows of two tokens: near-valid bodies, so accepted ones are common
_ROWS = st.lists(st.lists(_TOKENS, min_size=2, max_size=2).map(" ".join), min_size=2, max_size=2)


@given(st.text(_BODY_CHARS, max_size=40) | _ROWS.map("\n".join))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_matrix_body_text_raises_only_butson_errors(tmp_path, body):
    path = tmp_path / "fuzz.bh"
    path.write_text("bh h=3 order=2\ncyclic 2\n" + body, encoding="utf-8")
    # warnings are recorded, not raised, so numpy behaves as it does in the CLI
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            M = fileio.read_matrix(path)
        except ButsonError:
            M = None
    assert caught == []
    if M is not None:
        # only unsigned decimals below h are accepted, and each reads as its value
        rows = [ln.split() for ln in body.splitlines() if ln.strip()]
        assert all(re.fullmatch(r"[0-9]+", x) and int(x) < 3 for row in rows for x in row), body
        assert fileio.format_matrix(M).splitlines()[2:] == [" ".join(str(int(x)) for x in row) for row in rows]


@given(st.text(_BODY_CHARS, max_size=40) | _ROWS.map("\n".join))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_array_body_text_raises_only_butson_errors(tmp_path, body):
    path = tmp_path / "fuzz.arr"
    path.write_text("array h=3 dims=2,2\n" + body, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            A = fileio.read_array(path)
        except ButsonError:
            A = None
    assert caught == []
    if A is not None:
        # only lines of dims[-1] unsigned decimals below h are accepted
        rows = [ln.split() for ln in body.splitlines() if ln.strip()]
        assert all(len(row) == 2 for row in rows), body
        assert all(re.fullmatch(r"[0-9]+", x) and int(x) < 3 for row in rows for x in row), body
        assert A.e.tolist() == [int(x) for row in rows for x in row]


_HEADER_NUMS = (st.integers(-3, 12) | st.integers(2**40, 2**300) | st.integers(-2**300, -2**40)).map(str)
_HEADER_TOKENS = (
    st.builds("{}={}".format, st.sampled_from(["h", "order", "dims", "", "x"]),
              _HEADER_NUMS | st.lists(_HEADER_NUMS, min_size=1, max_size=3).map(",".join) | st.text(max_size=5))
    | st.sampled_from(["", "=", "==", "h=", "h==3", "dims=,", "order"])
    | st.text(max_size=8)
)
# a tag, then header tokens: repeated keys, bare and empty tokens and huge values
_HEADERS = st.builds(
    lambda tag, tokens: " ".join([tag, *tokens]),
    st.sampled_from(["bh", "array"]) | st.text(max_size=5),
    st.lists(_HEADER_TOKENS, max_size=5),
)


@given(_HEADERS)
@example(f"bh h={2**70} order=2")
@example(f"array h={2**70} dims=2")
@example("array h=2 dims=2" + ",1" * 70)  # more axes than numpy allows
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_header_text_raises_only_butson_errors(tmp_path, header):
    path = tmp_path / "fuzz.txt"
    for body, reader in (("cyclic 2\n0 0\n0 1\n", fileio.read_matrix), ("0 1\n", fileio.read_array)):
        path.write_text(f"{header}\n{body}", encoding="utf-8")
        try:
            reader(path)
        except ButsonError:
            pass


# small values build real groups (order <= 12^3); the huge ones must be refused
_GROUP_NUMS = (st.integers(-3, 12) | st.integers(2**40, 2**300) | st.integers(-2**300, -2**40)).map(str)
_DESCRIPTORS = st.builds(
    "{}{}{}".format,
    st.sampled_from(["cyclic", "abelian", "semidirect", "table"]),
    st.sampled_from([":", " ", ": "]),
    st.lists(_GROUP_NUMS, min_size=1, max_size=3).map(",".join),
)
# n rows of n entries under "order n", so the table reaches the group axioms
_TABLES = st.integers(0, 3).flatmap(
    lambda n: st.lists(st.lists(_GROUP_NUMS, min_size=n, max_size=n).map(" ".join), min_size=n, max_size=n)
    .map(lambda rows: "\n".join([f"order {n}", *rows]))
)


@given(st.text(max_size=30) | _DESCRIPTORS, st.text(max_size=60) | _TABLES)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_group_descriptors_raise_only_butson_errors(tmp_path, spec, table):
    # parse_group_spec("table:t") runs the table text through the table-file reader
    (tmp_path / "t").write_text(table, encoding="utf-8")
    for text in (spec, "table:t"):
        try:
            G = fileio.parse_group_spec(text, base_dir=tmp_path)
        except ButsonError:
            continue
        assert G.table.shape == (G.order, G.order)


@pytest.mark.parametrize("text, message", [
    ("", "must start with 'order n'"),
    ("size 2\n0 1\n1 0", "must start with 'order n'"),
    ("order\n0", "needs 'order n' and rows of integers"),
    ("order two\n0 1\n1 0", "needs 'order n' and rows of integers"),
    ("order 2\n0 1", "expected 2 rows of 2 entries"),
    ("order 2\n0 1\n1", "expected 2 rows of 2 entries"),
    ("order 2\n0 1 0\n1 0 1", "expected 2 rows of 2 entries"),
    ("order 2\n0 1\n1 x", "needs 'order n' and rows of integers"),
    # the body reader takes only ASCII integers that fit in int64
    ("order 2\n0 1\n1 \u0660", "needs 'order n' and rows of integers"),
    ("order 2\n0 1\n1_0 0", "needs 'order n' and rows of integers"),
    ("order 2\n0 1\n1 99999999999999999999", "needs 'order n' and rows of integers"),
    ("order 0", "order must be positive, got 0"),
    ("order -1\n0", "order must be positive, got -1"),
    ("order 2\n0 1\n1 2", "table entries out of range"),
    ("order 2\n0 1\n0 1", "element 0 is not a two-sided identity"),
])
def test_table_file_errors_name_the_file(tmp_path, text, message):
    (tmp_path / "t.txt").write_text(text, encoding="utf-8")
    with pytest.raises(NotAGroup, match=re.escape(f"{tmp_path / 't.txt'}: ") + ".*" + re.escape(message)):
        fileio.parse_group_spec("table:t.txt", base_dir=tmp_path)


def test_table_file_body_may_carry_tabs_and_blank_lines(tmp_path):
    (tmp_path / "t.txt").write_text("  order 3\n\n0 1\t2\n1 2 0\n \t\n2 0 1\n", encoding="utf-8")
    G = fileio.parse_group_spec("table:t.txt", base_dir=tmp_path)
    assert same_as(G, make_cyclic(3)) and G.descriptor == "table t.txt"
    # entries are unsigned decimals, as the program writes them: a sign is malformed
    (tmp_path / "t.txt").write_text("order 3\n+0 1 2\n1 2 0\n2 0 +1\n", encoding="utf-8")
    with pytest.raises(NotAGroup, match="needs 'order n' and rows of integers"):
        fileio.parse_group_spec("table:t.txt", base_dir=tmp_path)


def test_non_ascii_body_exits_2_without_crashing(tmp_path):
    # numpy 2.4's loadtxt segfaults on this character, so the check runs in
    # its own process: a regression must not take the test session down
    path = tmp_path / "u.bh"
    path.write_text("bh h=3 order=1\ncyclic 1\n\U0006c696\n", encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "butson.cli", "verify", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stderr.startswith("error:"), proc.stderr


@pytest.mark.parametrize("h, dtype, tokens", [
    (3, np.uint8, "0 2 1 00 1 2 2 0 002"),
    (300, np.uint16, "0 299 256 255 1 4 0 298 0299"),
])
def test_tokens_read_into_the_narrow_dtype(tmp_path, h, dtype, tokens):
    # unsigned decimals below h are parsed straight into exponent_dtype(h); the
    # token h fits that dtype, yet is malformed: no exponent is reduced mod h
    for values in (tokens.split(), [*tokens.split()[:4], str(h), *tokens.split()[5:]]):
        rows = [" ".join(values[i : i + 3]) for i in range(0, 9, 3)]
        (tmp_path / "m.bh").write_text("\n".join([f"bh h={h} order=3", "cyclic 3", *rows]) + "\n")
        (tmp_path / "a.arr").write_text("\n".join([f"array h={h} dims=3,3", *rows]) + "\n")
        for read, path, attr in ((fileio.read_matrix, tmp_path / "m.bh", "E"),
                                 (fileio.read_array, tmp_path / "a.arr", "e")):
            if str(h) in values:
                with pytest.raises(ButsonError, match="3 rows of 3 exponents, each an integer"):
                    read(path)
                continue
            E = getattr(read(path), attr)
            assert E.dtype == exponent_dtype(h) == dtype and not E.flags.writeable
            assert E.ravel().tolist() == [int(x) for x in values]


def test_reader_and_writer_memory_at_order_1024(tmp_path):
    # order 1024, h = 32: with int64 exponents the reader peaked at 11.7 MiB and
    # materialize plus the writer at 13.3 MiB; one byte per entry halves both.
    # The reader streams the file's lines into E (1 MiB) and holds no copy of
    # its 2.8 MB of text: a whole read of the text peaked at 5.3 MiB
    G = make_cyclic(1024)
    D = construct_group_bh(G, find_normal_cyclic_generator(G, 1024 // block_count(1024, min_h(1024))), 32)
    path = tmp_path / "c1024.bh"
    tracemalloc.start()
    try:
        text = fileio.format_matrix(materialize(G, D))
        write_peak = tracemalloc.get_traced_memory()[1]
        path.write_text(text)
        del text
        tracemalloc.reset_peak()
        M = fileio.read_matrix(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.E.dtype == np.uint8 and M.E.shape == (1024, 1024)
    assert write_peak < 7 << 20 and read_peak < 2 << 20, (write_peak, read_peak)


def test_header_is_checked_before_the_body_is_read(tmp_path):
    # a 1024-row body under a header whose order is not its group's: refused
    # from the header, with no byte of the 2 MB body parsed
    path = tmp_path / "m.bh"
    path.write_text("bh h=2 order=1024\ncyclic 5\n" + ("0 " * 1023 + "0\n") * 1024)
    tracemalloc.start()
    try:
        with pytest.raises(ButsonError, match="order header disagrees with the group"):
            fileio.read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    path.write_text("array h=2 dims=0,4\n" + "x\n" * 8)
    with pytest.raises(InvalidParams, match="every dimension must be positive"):
        fileio.read_array(path)


def _kind_files(tmp_path, kind, body, h):
    """A file of `kind` holding `body` under a header of order 2, and CLI arguments that read it."""
    header = {"matrix": f"bh h={h} order=2\ncyclic 2\n", "array": f"array h={h} dims=2,2\n", "table": "order 2\n"}
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(header[kind].encode() + body)
    if kind == "table":  # a matrix file over the table group reads it
        (tmp_path / "m.bh").write_text("bh h=2 order=2\ntable table.txt\n0 0\n0 1\n")
        return path, ["verify", str(tmp_path / "m.bh")]
    return path, ["verify-array" if kind == "array" else "verify", str(path)]


@pytest.mark.parametrize("kind", ["matrix", "array", "table"])
@pytest.mark.parametrize("body", [
    b"0 1\n1 0\n", b"0 1\r\n1 0\r\n", b"\n \n0 1\n\t\r\n\n1 0\n  \n", b"\t0\t1 \n1  \t0\n", b"0 1\n1 0",
], ids=["lf", "crlf", "blank-lines", "tabs", "no-final-newline"])
def test_body_grammar_accepts_what_the_writers_emit_and_blanks(tmp_path, kind, body):
    path, _ = _kind_files(tmp_path, kind, body, 3)
    if kind == "table":
        assert same_as(fileio.parse_group_spec("table:table.txt", base_dir=tmp_path), make_cyclic(2))
    else:
        E = fileio.read_array(path).e if kind == "array" else fileio.read_matrix(path).E
        assert E.ravel().tolist() == [0, 1, 1, 0]


@pytest.mark.parametrize("kind", ["matrix", "array", "table"])
@pytest.mark.parametrize("body, h", [
    (b"0 +1\n1 0\n", 3), (b"0 1\n-1 0\n", 3), (b"0 1\n3 0\n", 3), (b"0 1\n256 0\n", 256),
    (b"0 1\n65536 0\n", 300), (b"0 1\r1 0\n", 3), (b"0 1\n1\r0\n", 3),
    *((b"0 1\n1" + c + b"0\n", 3) for c in (b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e", b"\x00")),
    (b"0 1 1\n0\n", 3), (b"0\n1\n1\n0\n", 3), (b"", 3), (b"\n \n", 3),
], ids=["plus", "minus", "h", "256-uint8", "65536-uint16", "lone-cr", "lone-cr-in-row", "vt", "ff", "fs", "gs",
        "rs", "nul", "rows-of-3-and-1", "rows-of-1", "empty", "blank"])
def test_body_grammar_refuses_all_else_with_exit_2(tmp_path, capsys, kind, body, h):
    from butson import cli

    path, argv = _kind_files(tmp_path, kind, body, h)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and str(path) in err, err
    assert caught == []


def test_writers_match_str_join_reference():
    rng = random.Random(236)
    G = make_cyclic(12)
    rows = [[rng.randrange(236) for _ in range(12)] for _ in range(12)]
    want = ["bh h=236 order=12", "cyclic 12"] + [" ".join(str(e) for e in r) for r in rows]
    assert fileio.format_matrix(BhMatrix(236, G, rows)) == "\n".join(want) + "\n"
    A = Unimodular(array_group((2, 3, 4)), 105, tuple(rng.randrange(105) for _ in range(24)))
    flat = [str(e) for e in A.e.tolist()]
    want = ["array h=105 dims=2,3,4"] + [" ".join(flat[i : i + 4]) for i in range(0, 24, 4)]
    assert fileio.format_array(A) == "\n".join(want) + "\n"


def test_group_spec_errors_are_butson_errors(tmp_path):
    (tmp_path / "loop.txt").write_text("order 2\n0 1\n1 x\n")
    for spec in ["cyclic", "cyclic 2,3", "abelian 2,,3", "semidirect 4,2", "table missing.txt",
                 "table loop.txt", "klein 4"]:
        with pytest.raises(ButsonError):
            fileio.parse_group_spec(spec, base_dir=tmp_path)
    with pytest.raises(ButsonError, match="loop.txt"):
        fileio.parse_group_spec("table loop.txt", base_dir=tmp_path)


def test_table_group_resolved_relative_to_matrix(tmp_path):
    table = quaternion_table()
    (tmp_path / "q8.txt").write_text(
        "order 8\n" + "\n".join(" ".join(map(str, r)) for r in table)
    )
    G = fileio.parse_group_spec("table q8.txt", base_dir=tmp_path)
    assert G.order == 8 and not is_abelian(G)
    assert G.descriptor == "table q8.txt"


def test_parse_group_spec_forms():
    assert fileio.parse_group_spec("cyclic:6").order == 6
    assert fileio.parse_group_spec("cyclic 6").order == 6
    assert fileio.parse_group_spec("abelian 2,3").order == 6
    assert fileio.parse_group_spec("semidirect:4,2,3").order == 8
    with pytest.raises(ButsonError):
        fileio.parse_group_spec("simple 60")
    with pytest.raises(ButsonError):
        fileio.parse_group_spec("cyclic")


def test_array_round_trip(tmp_path, monkeypatch):
    A = Unimodular(array_group((2, 4)), 4, (0, 1, 2, 3, 1, 0, 3, 2))
    path = tmp_path / "a.arr"
    path.write_text(fileio.format_array(A))
    read = []
    rows = fileio._rows
    monkeypatch.setattr(fileio, "_rows", lambda *args: read.append(rows(*args)) or read[-1])
    back = fileio.read_array(path)
    assert back.group.abelian_factors == (2, 4) and back.h == A.h and np.array_equal(back.e, A.e)
    assert np.shares_memory(back.e, read[0])  # the narrow read-only body is kept without a copy


def test_array_format_frozen():
    A = Unimodular(make_cyclic(4), 2, (0, 0, 0, 1))
    assert fileio.format_array(A) == "array h=2 dims=4\n0 0 0 1\n"
    assert verify_group_ring(A)


def test_array_entry_count_validation(tmp_path):
    path = tmp_path / "bad.arr"
    path.write_text("array h=2 dims=2,2\n0 0 0\n")
    with pytest.raises(ButsonError):
        fileio.read_array(path)
