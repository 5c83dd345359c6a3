"""Plain-text file formats for matrices and arrays.

Matrix file::

    bh h=<H> order=<N>
    cyclic n | abelian n1,n2,... | semidirect m,k,t | table <file>
    <N lines of N space-separated exponents>

Array file::

    array h=<H> dims=n1,n2,...
    <numel/dims[-1] lines of dims[-1] exponents, row-major>

Table paths are resolved relative to the matrix file's directory.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path

from .arrays import PerfectArray
from .errors import ButsonError, NotAGroup
from .groups import (
    FiniteGroup,
    make_abelian,
    make_cyclic,
    make_from_table,
    make_semidirect,
    parse_cayley_table,
)
from .verify import BhMatrix


@contextmanager
def _reading(path: Path):
    """Report an unreadable or malformed file as a ButsonError naming it."""
    try:
        yield
    except OSError as exc:
        raise ButsonError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except (ValueError, KeyError, IndexError) as exc:
        raise ButsonError(f"{path}: malformed: {type(exc).__name__}: {exc}") from None


def _read_file(path: Path, tag: str, what: str) -> tuple[int, dict, list[str]]:
    """h, the other header fields and the non-blank body lines of a data file."""
    with _reading(path):
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        if not lines or lines[0].split()[0] != tag:
            raise ButsonError(f"{path}: not {what} file")
        fields = dict(kv.split("=") for kv in lines[0].split()[1:])
        h = int(fields.pop("h"))
    if h < 1:
        raise ButsonError(f"{path}: h must be positive, got {h}")
    return h, fields, lines[1:]


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
        with _reading(path):
            text = path.read_text()
        try:
            return make_from_table(parse_cayley_table(text), descriptor=f"table {arg}")
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


def format_matrix(M: BhMatrix) -> str:
    lines = [f"bh h={M.h} order={M.group.order}", M.group.descriptor]
    for row in M.exponents:
        lines.append(" ".join(str(e) for e in row))
    return "\n".join(lines) + "\n"


def read_matrix(path: str | Path) -> BhMatrix:
    path = Path(path)
    h, fields, lines = _read_file(path, "bh", "a matrix")
    with _reading(path):
        order = int(fields["order"])
        spec = lines[0]
        rows = [tuple(int(x) % h for x in ln.split()) for ln in lines[1 : 1 + order]]
    group = parse_group_spec(spec, base_dir=path.parent)
    if group.order != order:
        raise ButsonError(f"{path}: order header disagrees with the group")
    if len(rows) != order or any(len(r) != order for r in rows):
        raise ButsonError(f"{path}: expected {order} rows of {order} exponents")
    return BhMatrix(h, group, tuple(rows))


def format_array(A: PerfectArray) -> str:
    dims = ",".join(str(d) for d in A.dims)
    lines = [f"array h={A.h} dims={dims}"]
    width = A.dims[-1]
    flat = A.exponents
    for i in range(0, len(flat), width):
        lines.append(" ".join(str(e) for e in flat[i : i + width]))
    return "\n".join(lines) + "\n"


def write_array(A: PerfectArray, path: str | Path) -> None:
    Path(path).write_text(format_array(A))


def read_array(path: str | Path) -> PerfectArray:
    path = Path(path)
    h, fields, lines = _read_file(path, "array", "an array")
    with _reading(path):
        dims = tuple(int(x) for x in fields["dims"].split(","))
        flat = [int(x) % h for ln in lines for x in ln.split()]
    if len(flat) != math.prod(dims):
        raise ButsonError(f"{path}: entry count does not match dims")
    return PerfectArray(dims, h, tuple(flat))
