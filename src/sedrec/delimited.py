"""The one reader (``read_table``) and the one writer (``write_table``) of
every CSV and TSV that sedrec reads or writes."""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Mapping, Sequence

from .errors import InputDataError

_CHUNK = 256  # rows transposed at a time, so few are alive for the collector
# a TSV is never quoted: quote characters are text, and a tab or a line break
# inside a field cannot be written
_DIALECTS = {",": {}, "\t": {"delimiter": "\t", "quoting": csv.QUOTE_NONE, "quotechar": None}}


@dataclass(frozen=True)
class Number:
    """A number column: ``parse`` (int or float) of its text, in [lo, hi].
    The default bounds, the largest finite floats, reject nan and inf."""

    parse: type = float
    lo: float = -sys.float_info.max
    hi: float = sys.float_info.max

    def fault(self, text: str) -> str | None:
        """What is wrong with one field, or None when nothing is."""
        try:
            value = self.parse(text)
        except ValueError:
            return f"{text!r} is not {'an integer' if self.parse is int else 'a number'}"
        if isinstance(value, float) and not math.isfinite(value):
            return f"{value!r} is not finite"
        if not self.lo <= value <= self.hi:
            return f"{value!r} is outside [{self.lo!r}, {self.hi!r}]"
        return None


@dataclass
class Table:
    """The checked fields of one delimited file: one list per header column,
    in file order, with the number columns converted."""

    path: object
    header: list[str]
    delimiter: str
    columns: list[list]

    def fault(self, index: int, message: str) -> InputDataError:
        """The error for row ``index``, naming the line it was read from."""
        with open(self.path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, **_DIALECTS[self.delimiter])
            list(islice(filter(None, reader), index + 2))  # the header, then rows
            return InputDataError(f"{self.path}:{reader.line_num}: {message}")

    def only(self, column: str, allowed: set, what: str) -> None:
        """Fault at the first row whose ``column`` holds a value not in ``allowed``."""
        values = self.columns[self.header.index(column)]
        if not allowed.issuperset(values):
            i = next(i for i, v in enumerate(values) if v not in allowed)
            raise self.fault(i, f"{what} {values[i]!r}")


def read_table(path, header: Sequence[str], key: Sequence[str],
               numbers: Mapping[str, Number], delimiter: str = ",") -> Table:
    """Read a delimited file under the shared rules, or raise
    ``InputDataError`` naming ``path:line``.

    The first row equals ``header``. Every other row has as many fields, and
    a blank line is skipped. The ``numbers`` columns parse to finite numbers
    in range. No two rows repeat the ``key`` columns, compared after the
    numbers are parsed. The checks run a column at a time in C-level loops;
    only a fault reads the file again, to find its line.
    """
    header = list(header)
    table = Table(path, header, delimiter, [[] for _ in header])
    cols = table.columns
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, **_DIALECTS[delimiter])
        try:
            found = next(reader, None)
            if found != header:
                raise InputDataError(f"{path}:1: expected the header {header}, got {found}")
            lines = filter(None, reader)
            while chunk := list(islice(lines, _CHUNK)):
                try:
                    parts = list(zip(*chunk, strict=True))
                except ValueError:  # rows of different widths
                    parts = []
                if len(parts) != len(header):
                    i, n = next((i, len(r)) for i, r in enumerate(chunk) if len(r) != len(header))
                    raise table.fault(len(cols[0]) + i, f"expected {len(header)} fields, got {n}")
                for col, part in zip(cols, parts):
                    col.extend(part)
        except csv.Error as exc:
            raise InputDataError(f"{path}:{reader.line_num}: {exc}") from None
    for name, num in numbers.items():
        c = header.index(name)
        try:
            values = list(map(num.parse, cols[c]))
            total = sum(values)  # nan makes min and max unreliable, not the sum
            if values and not (num.lo <= min(values) and max(values) <= num.hi and total == total):
                raise ValueError
        except ValueError:
            i, why = next((i, why) for i, text in enumerate(cols[c]) if (why := num.fault(text)))
            raise table.fault(i, f"column {name}: {why}") from None
        cols[c] = values
    keyed = [cols[header.index(k)] for k in key]
    keys = keyed[0] if len(keyed) == 1 else list(zip(*keyed))
    if len(set(keys)) != len(keys):
        seen = set()
        i = next(i for i, k in enumerate(keys) if k in seen or seen.add(k))
        raise table.fault(i, f"duplicate {', '.join(key)} {keys[i]!r}")
    return table


def write_table(path, header: Sequence[str], rows: Iterable[Sequence],
                delimiter: str = ",") -> None:
    """Write a UTF-8 file with ``\\n`` line ends: the header, then the rows.
    A float is written as its ``repr``, None as an empty field."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n", **_DIALECTS[delimiter])
        writer.writerow(header)
        writer.writerows(rows)
