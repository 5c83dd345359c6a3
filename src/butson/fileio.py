"""Plain-text file formats for matrices and arrays.

Matrix file::

    bh h=<H> order=<N>
    cyclic n | abelian n1,n2,... | semidirect m,k,t | table <file>
    <N lines of N space-separated exponents>

Array file::

    array h=<H> dims=n1,n2,...
    <numel/dims[-1] lines of dims[-1] exponents, row-major>

An array file is a `Unimodular` over `make_abelian(dims)` (from
`arrays.array_group`): its exponent vector `e` in rows of dims[-1].
`format_array` writes any element over an abelian group in factor form, and
`read_array` keeps the body it reads as that element's `e`, with no copy.

Table file::

    order <N>
    <N lines of N space-separated elements, 0 the identity>

Table paths are resolved relative to the matrix file's directory.  A header has
exactly the keys shown, each as one key=value word (dims a comma-separated
list), none repeated or missing; a table header is exactly `order n`.  Every
number in a file, header, descriptor or body, is an unsigned ASCII decimal
(`_decimal`).  Header and descriptor lines decode as ASCII, any other byte as
a lone surrogate (which a file name keeps), so none is dropped, raises, or
passes for a digit or a space.  An h whose h x h reduction matrix, or a group
whose n x n table, would not fit in physical memory is refused (`TooLarge`),
all before the body is read.  A body is rows of numbers (exponents below h)
split by spaces or tabs, one row per LF or CRLF line, blank lines skipped;
anything else is malformed.  A file is read in one pass, its body streamed
through one byte guard into one `np.loadtxt` call, in `groups.exponent_dtype(h)`
(`np.intp` for a table), and every error met while it is open names it
(`_reading`).  Both writers gather the strings of 0..h-1 over an exponent array
and join its lines one row block (`groups.row_slices`) at a time.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ButsonError, NotAbelianFactored, NotAGroup, _check_fits
from .groups import (FiniteGroup, Unimodular, _frozen, check_table_fits, exponent_dtype, make_abelian,
                     make_cyclic, make_from_table, make_semidirect, row_slices)
from .verify import BhMatrix


@contextmanager
def _reading(path: Path):
    """The file at `path`, open in binary mode; every error while it is open is a ButsonError naming it."""
    try:
        with path.open("rb") as f:
            yield f
    except OSError as exc:
        raise ButsonError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ButsonError(f"{path}: malformed: {type(exc).__name__}: {exc}") from None
    except ButsonError as exc:  # as its own type, which callers and the CLI's exit code tell apart
        raise type(exc)(f"{path}: {exc}") from None


def _next_line(lines: Iterator[bytes]) -> bytes:
    """The next line that is not blank (spaces and tabs before a line end, as np.loadtxt skips), or b""."""
    return next((ln for ln in lines if ln.strip(b" \t") not in (b"", b"\n", b"\r\n", b"\r")), b"")


def _decimal(word: str) -> int:
    """word if an unsigned ASCII decimal, the one number grammar of every file; else ValueError (isdigit takes '²')."""
    if not (word.isascii() and word.isdigit()):
        raise ValueError(f"not an unsigned decimal: {word!r}")
    return int(word)


def _header(lines: Iterator[bytes], tag: str, what: str, key: str, parse) -> tuple[int, object]:
    """h and `parse` of the value of the one other key of a data file's header line."""
    words = _next_line(lines).decode("ascii", "surrogateescape").split()
    if words[:1] != [tag]:
        raise ButsonError(f"not {what} file")
    if bad := [kv for kv in words[1:] if kv.count("=") != 1]:
        raise ButsonError(f"bad header field {bad[0]!r}")
    pairs = [kv.split("=") for kv in words[1:]]
    if len(fields := dict(pairs)) != len(pairs):
        raise ButsonError("repeated header key")
    if unknown := sorted(fields.keys() - {"h", key}):
        raise ButsonError(f"unknown header key {unknown[0]!r}")
    if missing := sorted({"h", key} - fields.keys()):
        raise ButsonError(f"missing header key {missing[0]!r}")

    def value(k: str, parse=_decimal):
        try:
            return parse(fields[k])
        except ValueError:
            raise ButsonError(f"bad header value {k}={fields[k]!r}") from None

    if (h := value("h")) < 1:
        raise ButsonError(f"h must be positive, got {h}")
    _check_fits(h, f"the reduction matrix for h={h}")
    return h, value(key, parse)


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
        return _read_table_group(Path(base_dir or "", arg), f"table {arg}")  # an absolute arg replaces base_dir
    if kind not in ("cyclic", "abelian", "semidirect"):
        raise ButsonError(f"unknown group kind {kind!r}")
    try:
        nums = [_decimal(x.strip()) for x in arg.split(",")]
    except ValueError:
        raise ButsonError(f"bad group descriptor {spec!r}") from None
    if kind == "abelian":
        G = make_abelian(nums)
    elif kind == "cyclic" and len(nums) == 1:
        G = make_cyclic(nums[0])
    elif kind == "semidirect" and len(nums) == 3:
        G = make_semidirect(*nums)
    else:
        raise ButsonError(f"bad group descriptor {spec!r}")
    check_table_fits(G)  # a matrix over G is n x n, like its table
    return G


def _format(header: list[str], E: np.ndarray, h: int) -> str:
    """Header lines, then each row of an int array in 0..h-1 as space-separated text."""
    words, lines = np.array([str(e) for e in range(h)], dtype=object), list(header)
    for block in row_slices(*E.shape):
        lines += map(" ".join, words[E[block]].tolist())
    return "\n".join(lines + [""])  # not join(...) + "\n", which copies the whole text once more


def format_matrix(M: BhMatrix) -> str:
    return _format([f"bh h={M.h} order={M.group.order}", M.group.descriptor], M.E, M.h)


def _read_table_group(path: Path, descriptor: str) -> FiniteGroup:
    """The group of a table file: a line 'order n', its table refused unless it fits, then n rows of n integers."""
    with _reading(path) as f:
        words = _next_line(f).decode("ascii", "surrogateescape").split()
        try:
            (n,) = map(_decimal, words[1:]) if words[:1] == ["order"] else ()  # 'order' and one number
        except ValueError:
            raise NotAGroup("cayley table file must start with 'order n'") from None
        if n < 1:
            raise NotAGroup(f"cayley table order must be positive, got {n}")
        _check_fits(n, f"the Cayley table of {descriptor} (order {n})")  # check_table_fits's rule, before any row
        if (rows := _rows(f, (n, n))) is None:
            raise NotAGroup(f"cayley table needs 'order n' and rows of integers: expected {n} rows of {n} entries")
        return make_from_table(rows, descriptor)


def read_matrix(path: str | Path) -> BhMatrix:
    path = Path(path)
    with _reading(path) as f:
        h, order = _header(f, "bh", "a matrix", "order", _decimal)
        group = parse_group_spec(_next_line(f).decode("ascii", "surrogateescape").strip(), base_dir=path.parent)
        if group.order != order:
            raise ButsonError("order header disagrees with the group")
        if (E := _rows(f, (order, order), h)) is None:
            raise ButsonError(f"expected {order} rows of {order} exponents, each an integer")
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
        h, dims = _header(f, "array", "an array", "dims", lambda v: tuple(map(_decimal, v.split(","))))
        group = array_group(dims)
        shape = (group.order // dims[-1], dims[-1])
        if (E := _rows(f, shape, h)) is None:
            raise ButsonError(f"expected {shape[0]} rows of {shape[1]} exponents, each an integer")
    return Unimodular(group, h, E)
