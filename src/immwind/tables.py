"""CSV tables that hold only numbers.

``csv.writer`` writes a Python float or int as its ``repr``, which never
needs quoting, and ends a row with ``\\r\\n``; joining each row's
``repr``s gives the same bytes without ``csv``'s per-cell dispatch.
Tables with text cells, which may need quoting, stay with ``csv``.
"""

from __future__ import annotations

from pathlib import Path


def write_numbers(path: str | Path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV, byte for byte as ``csv.writer`` would.

    Each row holds Python floats and ints (an ndarray row's ``tolist()``,
    not numpy scalars) and is formatted on its own, so a row iterator
    never holds the table as Python objects.  Header cells are written
    with ``str`` and must need no quoting.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(str, header)) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
