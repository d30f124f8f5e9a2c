"""Rows of a float table as text lines: the values of each row in shortest
round-trip form (``repr`` of a Python float), joined by a separator.

:func:`isobenefit.io.write_all` formats every table with
:func:`format_rows`; for the large tables of a call it also runs this file
as a script, in one helper interpreter that formats the second half of the
rows of each::

    python -I -S _rows.py RAW NCOLS SEP [RAW NCOLS SEP ...]

Each RAW is a file of native float64 values, ``NCOLS`` to a row. The script
writes each row to standard output as one line ended by ``\\n``, the tables
in the order given. It runs without the package or numpy on its path, so
this module imports only ``sys``.

Both processes format and write a table in chunks of rows of about
``CHUNK_VALUES`` values (:func:`chunk_rows`), and the helper reads its raw
rows in the same chunks, so that neither holds more than a chunk of a
table's text.
"""

import sys

CHUNK_VALUES = 2 ** 12


def chunk_rows(ncols):
    """Rows of a chunk of a table of ``ncols`` columns: at least one."""
    return max(1, CHUNK_VALUES // max(ncols, 1))


def format_rows(rows, sep):
    """One line per row of ``rows``, an iterable of lists of Python floats.
    A generator, so that a caller that feeds it one row at a time keeps
    only one row's floats alive."""
    for row in rows:
        yield sep.join(map(repr, row))


def main(argv):
    for k in range(0, len(argv), 3):
        raw, ncols, sep = argv[k:k + 3]
        ncols = int(ncols)
        with open(raw, "rb") as handle:
            while chunk := handle.read(8 * ncols * chunk_rows(ncols)):
                values = memoryview(chunk).cast("d")
                rows = (values[i:i + ncols].tolist() for i in range(0, len(values), ncols))
                sys.stdout.buffer.write(("\n".join(format_rows(rows, sep)) + "\n").encode("ascii"))


if __name__ == "__main__":
    main(sys.argv[1:])
