"""The tab-separated format of every stored intermediate.

A file is a sequence of rows whose fields are separated by tabs. Lines
that are blank or start with ``#`` (the run header, comments) carry no
row; ``data_lines`` applies that rule for every stored text file, the
corpus and its metadata included. Readers check each row's field count
and convert its cells, so a malformed file fails with ``TsvError``
naming the file and line.
"""

from __future__ import annotations

__all__ = ["TsvError", "data_lines", "read_rows", "format_rows", "unique_keys"]


class TsvError(ValueError):
    pass


def data_lines(path):
    """(line number, line) for each line of ``path`` that is neither blank nor a ``#`` comment.

    A UTF-8 byte-order mark opening the file is dropped. A file that is
    not UTF-8 raises ``TsvError`` naming it.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for ln, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if line and not line.startswith("#"):
                    yield ln, line
    except UnicodeDecodeError as exc:
        raise TsvError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_rows(path, *types, rest=None, header=None, key=0) -> list[list]:
    """Rows of a stored TSV file, each cell converted.

    ``types`` holds one converter per leading field (``str`` keeps the
    text). Without ``rest`` every row has exactly ``len(types)`` fields;
    with it, every row has as many fields as the first row, more than
    ``len(types)``, and ``rest`` converts the fields past ``types``. A
    first row equal to ``header`` (the column names) is skipped. A row
    with another field count, a cell its converter rejects with
    ``ValueError`` or ``TypeError``, or a row whose first ``key``
    converted fields repeat an earlier row's raises ``TsvError`` with
    ``path:line``.
    """
    rows: list[list] = []
    keys: set[tuple] = set()
    width = None if rest else len(types)
    convert = types
    for ln, line in data_lines(path):
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
        if key:
            k = tuple(rows[-1][:key])
            if k in keys:
                raise TsvError(f"{path}:{ln}: the key {k} is given twice")
            keys.add(k)
    return rows


def unique_keys(pairs: list) -> dict:
    """``json.loads``'s ``object_pairs_hook`` for every stored JSON object
    (dictionary cells, the config): a key given twice raises ``ValueError``."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"the key {key!r} is given twice")
        obj[key] = value
    return obj


def format_rows(rows, header: str | None = None) -> str:
    """TSV text: a ``# header`` line if given, then one line per row.

    Each field is passed through ``str``, so callers format floats with
    the precision their artifact fixes.
    """
    head = f"# {header}\n" if header else ""
    return head + "".join("\t".join(map(str, row)) + "\n" for row in rows)
