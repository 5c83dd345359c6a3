"""Plain-text file formats for matrices and arrays.

Matrix file::

    bh h=<H> order=<N>
    cyclic n | abelian n1,n2,... | semidirect m,k,t | table <file>
    <N lines of N space-separated exponents>

Array file::

    array h=<H> dims=n1,n2,...
    <numel/dims[-1] lines of dims[-1] exponents, row-major>

Table file::

    order <N>
    <N lines of N space-separated elements, 0 the identity>

Table paths are resolved relative to the matrix file's directory.  A header
has exactly the keys shown, none repeated, and an h whose h x h reduction
matrix would not fit in physical memory is refused (`TooLarge`) before any
array is built.  All three bodies must be ASCII integer tokens and are
parsed by numpy (a table's row count is checked first), and both writers
gather the strings of 0..h-1 over an int array and join its lines one row
block (`groups.row_slices`) at a time.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ButsonError, NotAGroup, _check_fits
from .groups import FiniteGroup, _frozen, make_abelian, make_cyclic, make_from_table, make_semidirect, row_slices
from .verify import BhMatrix

if TYPE_CHECKING:  # of the array code, only read_array needs `arrays` at run time
    from .arrays import PerfectArray


@contextmanager
def _reading(path: Path):
    """Report an unreadable or malformed file as a ButsonError naming it."""
    try:
        yield
    except OSError as exc:
        raise ButsonError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except (ValueError, KeyError, IndexError) as exc:
        raise ButsonError(f"{path}: malformed: {type(exc).__name__}: {exc}") from None


def _read_file(path: Path, tag: str, what: str, key: str) -> tuple[int, str, list[str]]:
    """h, the value of the header's one other key and the non-blank body lines of a data file."""
    with _reading(path):
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        if not lines or lines[0].split()[0] != tag:
            raise ButsonError(f"{path}: not {what} file")
        pairs = [kv.split("=") for kv in lines[0].split()[1:]]
        if len(fields := dict(pairs)) != len(pairs):
            raise ButsonError(f"{path}: repeated header key")
        if unknown := sorted(fields.keys() - {"h", key}):
            raise ButsonError(f"{path}: unknown header key {unknown[0]!r}")
        h, value = int(fields["h"]), fields[key]
    if h < 1:
        raise ButsonError(f"{path}: h must be positive, got {h}")
    _check_fits(h, f"{path}: the reduction matrix for h={h}")
    return h, value, lines[1:]


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


def _integers(lines: list[str]) -> np.ndarray | None:
    """Lines of ASCII integer tokens as int64 rows, else None; ragged rows raise ValueError.

    No lines give a (0, 0) array.
    """
    # numpy sees only rows of ASCII integer tokens: it warns on no rows, some non-ASCII
    # text crashes it (2.4: U+6C696) and older versions read "1.9" as 1; "#" is text
    if not lines:
        return np.zeros((0, 0), dtype=np.int64)
    if all(re.fullmatch(r"[-+0-9 \t]*", ln) for ln in lines):
        return np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
    return None


def _read_cayley_table(path: Path) -> np.ndarray:
    """The (n, n) body of a table file: a line 'order n', then n rows of n integers."""
    with _reading(path):
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    head = lines[0].split() if lines else [""]
    if not head[0].startswith("order"):
        raise NotAGroup("cayley table file must start with 'order n'")
    try:
        n = int(head[1])
    except (IndexError, ValueError):
        raise NotAGroup("cayley table needs 'order n' and rows of integers") from None
    body = lines[1:]
    if len(body) != n:
        raise NotAGroup(f"expected {n} rows of {n} entries")
    try:
        rows = _integers(body)
    except ValueError:  # rows of unequal length, or a token that is no int64
        rows = None
    if rows is None or rows.shape != (n, n):
        if {len(ln.split()) for ln in body} - {n}:
            raise NotAGroup(f"expected {n} rows of {n} entries")
        raise NotAGroup("cayley table needs 'order n' and rows of integers")
    return rows


def read_matrix(path: str | Path) -> BhMatrix:
    path = Path(path)
    h, order, lines = _read_file(path, "bh", "a matrix", "order")
    with _reading(path):
        order = int(order)
        spec, body = lines[0], lines[1:]
        E = _integers(body) if len(body) == order else None
    group = parse_group_spec(spec, base_dir=path.parent)
    if group.order != order:
        raise ButsonError(f"{path}: order header disagrees with the group")
    if E is None or E.shape != (order, order):
        raise ButsonError(f"{path}: expected {order} rows of {order} exponents, each an integer")
    return BhMatrix(h, group, _frozen(E))


def format_array(A: PerfectArray) -> str:
    dims = ",".join(str(d) for d in A.dims)
    return _format([f"array h={A.h} dims={dims}"], A.E.reshape(-1, A.dims[-1]), A.h)


def read_array(path: str | Path) -> PerfectArray:
    from .arrays import PerfectArray

    path = Path(path)
    h, dims, lines = _read_file(path, "array", "an array", "dims")
    with _reading(path):
        dims = tuple(int(x) for x in dims.split(","))
        flat = _integers([" ".join(lines)] if lines else [])  # entries may wrap anywhere
    if flat is None or flat.size != math.prod(dims):
        raise ButsonError(f"{path}: expected {math.prod(dims)} exponents, each an integer")
    return PerfectArray(dims, h, flat)
