"""Rows of a float table as text lines: the values of each row in shortest
round-trip form (``repr`` of a Python float), joined by a separator.

:func:`isobenefit.io.write_rows` formats every table with
:func:`format_rows`; for a large one it also runs this file as a script,
in a helper interpreter that formats the second half of the rows::

    python -I -S _rows.py RAW NCOLS SEP

RAW is a file of native float64 values, ``NCOLS`` to a row. The script
writes each row to standard output as one line ended by ``\\n``. It runs
without the package or numpy on its path, so this module imports only
``sys``.
"""

import sys


def format_rows(rows, sep):
    """One line per row of ``rows``, an iterable of lists of Python floats.
    A generator, so that a caller that feeds it one row at a time keeps
    only one row's floats alive."""
    for row in rows:
        yield sep.join(map(repr, row))


def main(argv):
    raw, ncols, sep = argv
    ncols = int(ncols)
    with open(raw, "rb") as handle:
        values = memoryview(handle.read()).cast("d")
    rows = (values[k:k + ncols].tolist() for k in range(0, len(values), ncols))
    text = "\n".join(format_rows(rows, sep)) + "\n"
    sys.stdout.buffer.write(text.encode("ascii"))


if __name__ == "__main__":
    main(sys.argv[1:])
