"""The tab-separated format of every stored intermediate.

A file is a sequence of rows whose fields are separated by tabs. Lines
that are blank or start with ``#`` (the run header, comments) carry no
row. Readers check each row's field count and convert its cells, so a
malformed file fails with ``TsvError`` naming the file and line.
"""

from __future__ import annotations

__all__ = ["TsvError", "read_rows", "format_rows"]


class TsvError(ValueError):
    pass


def read_rows(path, *types, rest=None, header=None) -> list[list]:
    """Rows of a stored TSV file, each cell converted.

    ``types`` holds one converter per leading field (``str`` keeps the
    text). Without ``rest`` every row has exactly ``len(types)`` fields;
    with it, every row has as many fields as the first row, more than
    ``len(types)``, and ``rest`` converts the fields past ``types``. A
    first row equal to ``header`` (the column names) is skipped. A row
    with another field count, or a cell its converter rejects with
    ``ValueError`` or ``TypeError``, raises ``TsvError`` with ``path:line``.
    """
    rows: list[list] = []
    width = None if rest else len(types)
    convert = types
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if not rows and header is not None and fields == list(header):
                    header = None
                    continue
                if width is None:
                    if len(fields) <= len(types):
                        raise TsvError(f"{path}:{ln}: expected at least "
                                       f"{len(types) + 1} fields, got {len(fields)}")
                    width = len(fields)
                    convert = types + (rest,) * (width - len(types))
                if len(fields) != width:
                    raise TsvError(f"{path}:{ln}: expected {width} fields, got {len(fields)}")
                try:
                    rows.append([f(v) for f, v in zip(convert, fields)])
                except (ValueError, TypeError) as exc:
                    raise TsvError(f"{path}:{ln}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise TsvError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return rows


def format_rows(rows, header: str | None = None) -> str:
    """TSV text: a ``# header`` line if given, then one line per row.

    Each field is passed through ``str``, so callers format floats with
    the precision their artifact fixes.
    """
    head = f"# {header}\n" if header else ""
    return head + "".join("\t".join(map(str, row)) + "\n" for row in rows)
