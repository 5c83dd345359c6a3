"""Plain-text round trips for matrix and array files."""

from __future__ import annotations

import pytest

from butson import fileio
from butson.arrays import PerfectArray, verify_perfect
from butson.errors import ButsonError
from butson.groups import GroupRingElt, make_abelian
from butson.verify import materialize, verify_bh

from conftest import quaternion_table


def sample_matrix():
    G = make_abelian([4])
    return materialize(G, GroupRingElt.from_exponents(G, 2, [0, 0, 0, 1]))


def test_matrix_round_trip(tmp_path):
    M = sample_matrix()
    path = tmp_path / "m.bh"
    path.write_text(fileio.format_matrix(M))
    back = fileio.read_matrix(path)
    assert back.h == M.h and back.exponents == M.exponents
    assert back.group.same_as(M.group)
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
                         ("array h=2\n0 1\n", fileio.read_array), ("array h 2\n", fileio.read_array),
                         (None, fileio.read_matrix), (None, fileio.read_array)]:
        if text is None:
            path.unlink(missing_ok=True)
        else:
            path.write_text(text)
        with pytest.raises(ButsonError, match=str(path)):
            reader(path)


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
    assert G.order == 8 and not G.is_abelian
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


def test_array_round_trip(tmp_path):
    A = PerfectArray((2, 4), 4, (0, 1, 2, 3, 1, 0, 3, 2))
    path = tmp_path / "a.arr"
    fileio.write_array(A, path)
    back = fileio.read_array(path)
    assert back == A


def test_array_format_frozen():
    A = PerfectArray((4,), 2, (0, 0, 0, 1))
    assert fileio.format_array(A) == "array h=2 dims=4\n0 0 0 1\n"
    assert verify_perfect(A)


def test_array_entry_count_validation(tmp_path):
    path = tmp_path / "bad.arr"
    path.write_text("array h=2 dims=2,2\n0 0 0\n")
    with pytest.raises(ButsonError):
        fileio.read_array(path)
