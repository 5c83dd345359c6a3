"""The bytes of the files the CLI writes, pinned by their sha256.

Each instance runs `construct` and, for abelian groups, `export-array`.  A
change that alters a written matrix or array file fails here, however the
file is produced.
"""

from __future__ import annotations

import hashlib

import pytest

from butson.cli import main

from conftest import quaternion_table

_RING = {
    2: ["--family", "galois", "--p", "2", "--d", "1", "--n", "2"],
    3: ["--family", "galois", "--p", "3", "--d", "1", "--n", "2"],
}

GOLDEN = {
    # name: (construct argv without --out, sha256 of the .bh, of the .arr or None)
    "cyclic-4-h2": (
        ["construct", "group", "--order", "4", "--h", "2"],
        "4a4ee69005a9fc9e918ab02cf4f15ab162426f238cb6525361ec60a8c0d9b1e8",
        "0f64abdc3a9f2c57220ae76060985ea456327d231352b7a3ac9f96fd61f82cdc"),
    "cyclic-118-h236": (
        ["construct", "group", "--order", "118", "--h", "236", "--m", "5"],
        "b5770ac6e7084d423ff0d98f50fa9960e3143eb576a2e5933c71a18359ed9ad2",
        "443ecc50f3374795761d87b25cd74cd23c0f35dfcedebcaee3e016693abb6c6c"),
    "cyclic-105-h105": (
        ["construct", "group", "--order", "105", "--h", "105", "--m", "2"],
        "2b655aacb0d490eec966096bb812ca9af63407ab34e99868002f9e92b93940c7",
        "ae72139c4d0e5bd5be4ec1be4efc66bacf2d1f8b507608f3dd69a582bd64eacb"),
    "q8-table-h4": (
        ["construct", "group", "--order", "8", "--h", "4", "--group", "table:q8.tbl"],
        "9be65457cbd2b905cf31d373d1b06e29fdccb1853b0dc7fe206270cd65ee267b",
        None),
    "semidirect-64-h8": (
        ["construct", "group", "--order", "64", "--h", "8", "--group", "semidirect:16,4,15", "--m", "3"],
        "1ea09dcc378d4308fe5f0ff331529a195e84a2eb694bc8f9a2ea3a5204f75ba6",
        None),
    "partition-16-h2": (
        ["construct", "local-partition", *_RING[2], "--t", "1", "--h", "2"],
        "423d82bff0338a64a4b0cef1ffcc92f1530ba0504d4434052329f3825733808f",
        "ae85eed61512826c555d9fddf5b2e49cdeeee5e68e8a994a4bba50400649a1a3"),
    "partition-81-h6": (
        ["construct", "local-partition", *_RING[3], "--t", "1", "--h", "6", "--seed", "7"],
        "88f26aadcb8776a0b328cf13a7fccb0123c749dbe042f89b397343183a4d71e2",
        "6eb5968d568f98cea2cb69ac4a8776ba3b33e107e9892b9313ad08b540749da3"),
    "partition-truncated-16-h2": (
        ["construct", "local-partition", "--family", "truncated", "--p", "2", "--d", "1", "--n", "2",
         "--t", "1", "--h", "2", "--seed", "3"],
        "234752c87a08d72a3224d38e9d7e3f1246fba17d85439baed49bf8d44346974a",
        "6cdec5c50acfe2584e830319bd27b84f303021edce3093eab8400b4abde61fda"),
    "lines-16-h6": (
        ["construct", "local-lines", *_RING[2], "--h", "6"],
        "0be87e2d8c17152b517f76232fa7301283db7c59223de68128d2d0b389e5ef41",
        "bba77625ca266f80e0983632cc1b4e28beb52cf0e9680b31e14b05e223ee5639"),
    "lines-truncated-81-h6": (
        ["construct", "local-lines", "--family", "truncated", "--p", "3", "--d", "1", "--n", "2", "--h", "6"],
        "464ff7e6091adf75e887eb839272b893b6df948b71855c3cfe8d47e04be69f1d",
        "425d77e247ba929fdf8107530a8077232c8ef4b52360dcb96e17d41219f27de6"),
    # d = 2 rings: the truncated ones multiply field blocks, not single coordinates
    "lines-truncated-256-h6": (
        ["construct", "local-lines", "--family", "truncated", "--p", "2", "--d", "2", "--n", "2", "--h", "6"],
        "21941f1b8c55125346df11b97f77ae83b08bedba6f6dea3c9ae8f43d3ab4fcd4",
        "5ef9ea19416ce57eb68fc92a0a3d32788a01d4b4009c134ca2ee961abba19c1c"),
    "partition-truncated-256-h4": (
        ["construct", "local-partition", "--family", "truncated", "--p", "2", "--d", "2", "--n", "2",
         "--t", "1", "--h", "4", "--seed", "7"],
        "969c65f598dfaeffec55301fd5b0ad08067ee8d52f4ac5b0288ded4ed83231d4",
        "f9945241c7260f30e22e8c2c492dd801f9799a80c1151dc092dddab5d0ebc474"),
    "lines-256-h6": (
        ["construct", "local-lines", "--family", "galois", "--p", "2", "--d", "2", "--n", "2", "--h", "6"],
        "9991f1d99e1f58d0f081c550dfa7d82675e22aa814904c3c67f2dcd1bb51c972",
        "116fdd59569fcf138d95d3980a4122ad9fc47328d4ca869990d9709a60133dbf"),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_written_files_are_byte_identical(name, tmp_path, monkeypatch, capsys):
    argv, bh_digest, arr_digest = GOLDEN[name]
    monkeypatch.chdir(tmp_path)  # the table path is written into the header as given
    (tmp_path / "q8.tbl").write_text(
        "order 8\n" + "\n".join(" ".join(map(str, r)) for r in quaternion_table()) + "\n")
    assert main([*argv, "--out", f"{name}.bh"]) == 0
    assert sha256(tmp_path / f"{name}.bh") == bh_digest
    if arr_digest is None:
        assert main(["export-array", f"{name}.bh", "--out", f"{name}.arr"]) == 2
        assert "NotAbelianFactored" in capsys.readouterr().err
    else:
        assert main(["export-array", f"{name}.bh", "--out", f"{name}.arr"]) == 0
        assert sha256(tmp_path / f"{name}.arr") == arr_digest
