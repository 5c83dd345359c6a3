"""Plain-text file formats for matrices and arrays.

Matrix file::

    bh h=<H> order=<N>
    cyclic n | abelian n1,n2,... | semidirect m,k,t | table <file>
    <N lines of N space-separated exponents>

Array file::

    array h=<H> dims=n1,n2,...
    <numel/dims[-1] lines of dims[-1] exponents, row-major>

An array file is a `Unimodular` over the factor-form group of its dims,
`arrays.array_group(dims)`: its exponent vector `e` in rows of dims[-1].
`format_array` writes any element over an abelian group in factor form, and
`read_array` keeps the body it reads as that element's `e`, with no copy.

Table file::

    order <N>
    <N lines of N space-separated elements, 0 the identity>

Table paths are resolved relative to the matrix file's directory.  A header
has exactly the keys shown, each as one key=value word, none repeated or
missing, and an h whose h x h reduction matrix would not fit in physical
memory is refused (`TooLarge`); all of it, a matrix's group and order too,
is checked before the body is read.  A body is what the writers emit, rows
of unsigned decimals (exponents below h) split by spaces or tabs, one row
per LF or CRLF line, blank lines skipped; anything else is malformed.  Its
lines stream from the open file through one byte guard into one `np.loadtxt`
call, in `groups.exponent_dtype(h)` (`np.intp` for a table).  Both writers
gather the strings of 0..h-1 over an exponent array and join its lines one
row block (`groups.row_slices`) at a time.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ButsonError, NotAbelianFactored, NotAGroup, _check_fits
from .groups import (FiniteGroup, Unimodular, _frozen, exponent_dtype, make_abelian, make_cyclic,
                     make_from_table, make_semidirect, row_slices)
from .verify import BhMatrix


@contextmanager
def _reading(path: Path):
    """The file at `path`, open in binary mode; an unreadable or malformed one is a ButsonError naming it."""
    try:
        with path.open("rb") as f:
            yield f
    except OSError as exc:
        raise ButsonError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ButsonError(f"{path}: malformed: {type(exc).__name__}: {exc}") from None


def _next_line(lines: Iterator[bytes]) -> bytes:
    """The next line that is not blank (spaces and tabs before a line end, as np.loadtxt skips), or b""."""
    return next((ln for ln in lines if ln.strip(b" \t") not in (b"", b"\n", b"\r\n", b"\r")), b"")


def _header(lines: Iterator[bytes], path: Path, tag: str, what: str, key: str) -> tuple[int, str]:
    """h and the value of the one other key of a data file's header line."""
    words = _next_line(lines).decode().split()
    if words[:1] != [tag]:
        raise ButsonError(f"{path}: not {what} file")
    if bad := [kv for kv in words[1:] if kv.count("=") != 1]:
        raise ButsonError(f"{path}: bad header field {bad[0]!r}")
    pairs = [kv.split("=") for kv in words[1:]]
    if len(fields := dict(pairs)) != len(pairs):
        raise ButsonError(f"{path}: repeated header key")
    if unknown := sorted(fields.keys() - {"h", key}):
        raise ButsonError(f"{path}: unknown header key {unknown[0]!r}")
    if missing := sorted({"h", key} - fields.keys()):
        raise ButsonError(f"{path}: missing header key {missing[0]!r}")
    h, value = int(fields["h"]), fields[key]
    if h < 1:
        raise ButsonError(f"{path}: h must be positive, got {h}")
    _check_fits(h, f"{path}: the reduction matrix for h={h}")
    return h, value


def _rows(lines: Iterator[bytes], shape: tuple[int, int], h: int | None = None) -> np.ndarray | None:
    """The rest of a file as a `shape` array: exponents below h, or np.intp without h; else None.

    numpy sees a line only past the byte guard (it would read a sign, and some
    non-ASCII text crashes it: 2.4, U+6C696), and no body of blank lines (it
    warns).  It refuses a lone CR, ragged rows and a token its dtype cannot hold.
    """
    dtype = np.intp if h is None else exponent_dtype(h)
    if not (first := _next_line(lines)):
        return np.zeros((0, 0), dtype) if shape == (0, 0) else None
    # the byte guard: a line holding any other byte reaches numpy as b"x", which it refuses
    body = (b"x" if ln.translate(None, b"0123456789 \t\r\n") else ln for ln in chain([first], lines))
    try:
        rows = np.loadtxt(body, dtype=dtype, comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape != shape or (h is not None and rows.max() >= h):
        return None
    return _frozen(rows)


def parse_group_spec(spec: str, base_dir: Path | None = None) -> FiniteGroup:
    """Build a group from a descriptor like 'cyclic 4' or 'semidirect 4,2,3'."""
    parts = spec.replace(":", " ").split(None, 1)
    if len(parts) != 2:
        raise ButsonError(f"bad group descriptor {spec!r}")
    kind, arg = parts[0], parts[1].strip()
    if kind == "table":
        path = Path(arg)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            return make_from_table(_read_cayley_table(path), descriptor=f"table {arg}")
        except NotAGroup as exc:
            raise NotAGroup(f"{path}: {exc}") from None
    if kind not in ("cyclic", "abelian", "semidirect"):
        raise ButsonError(f"unknown group kind {kind!r}")
    try:
        nums = [int(x) for x in arg.split(",")]
    except ValueError:
        raise ButsonError(f"bad group descriptor {spec!r}") from None
    if kind == "abelian":
        return make_abelian(nums)
    if kind == "cyclic" and len(nums) == 1:
        return make_cyclic(nums[0])
    if kind == "semidirect" and len(nums) == 3:
        return make_semidirect(*nums)
    raise ButsonError(f"bad group descriptor {spec!r}")


def _format(header: list[str], E: np.ndarray, h: int) -> str:
    """Header lines, then each row of an int array in 0..h-1 as space-separated text."""
    words, lines = np.array([str(e) for e in range(h)], dtype=object), list(header)
    for block in row_slices(*E.shape):
        lines += map(" ".join, words[E[block]].tolist())
    return "\n".join(lines + [""])  # not join(...) + "\n", which copies the whole text once more


def format_matrix(M: BhMatrix) -> str:
    return _format([f"bh h={M.h} order={M.group.order}", M.group.descriptor], M.E, M.h)


def _read_cayley_table(path: Path) -> np.ndarray:
    """The (n, n) body of a table file: a line 'order n', then n rows of n integers."""
    with _reading(path) as f:
        head = _next_line(f).decode().split() or [""]
        if not head[0].startswith("order"):
            raise NotAGroup("cayley table file must start with 'order n'")
        try:
            n = int(head[1])
        except (IndexError, ValueError):
            raise NotAGroup("cayley table needs 'order n' and rows of integers") from None
        if n < 1:
            raise NotAGroup(f"cayley table order must be positive, got {n}")
        if (rows := _rows(f, (n, n))) is not None:
            return rows
    with _reading(path) as f:  # read again only to choose the message
        counts = [c for ln in f if (c := len(ln.split()))][1:]  # tokens per line below the header
    if len(counts) != n or set(counts) - {n}:
        raise NotAGroup(f"expected {n} rows of {n} entries")
    raise NotAGroup("cayley table needs 'order n' and rows of integers")


def read_matrix(path: str | Path) -> BhMatrix:
    path = Path(path)
    with _reading(path) as f:
        h, order = _header(f, path, "bh", "a matrix", "order")
        order = int(order)
        group = parse_group_spec(_next_line(f).decode().strip(), base_dir=path.parent)
        if group.order != order:
            raise ButsonError(f"{path}: order header disagrees with the group")
        if (E := _rows(f, (order, order), h)) is None:
            raise ButsonError(f"{path}: expected {order} rows of {order} exponents, each an integer")
    return BhMatrix(h, group, E)


def format_array(D: Unimodular) -> str:
    """The array file of D over an abelian group in factor form: e in rows of the last factor."""
    from .arrays import array_group  # here, not at the top: `verify` loads no array code

    if (dims := D.group.abelian_factors) is None:
        raise NotAbelianFactored("array export needs an abelian group in factor form")
    array_group(dims)  # refuses dims no array may have, before any text is built
    return _format([f"array h={D.h} dims={','.join(map(str, dims))}"], D.e.reshape(-1, dims[-1]), D.h)


def read_array(path: str | Path) -> Unimodular:
    """The element over `arrays.array_group(dims)` whose array file is at path."""
    from .arrays import array_group

    path = Path(path)
    with _reading(path) as f:
        h, dims = _header(f, path, "array", "an array", "dims")
        dims = tuple(int(x) for x in dims.split(","))
        group = array_group(dims)
        shape = (group.order // dims[-1], dims[-1])
        if (E := _rows(f, shape, h)) is None:
            raise ButsonError(f"{path}: expected {shape[0]} rows of {shape[1]} exponents, each an integer")
    return Unimodular(group, h, E)
