"""The CSV table format of every artifact except the distance CSV.

A table is a ``# <what> units=...`` comment line, the column line, then one
row per entry: integers as integers, floats in shortest round-trip form,
strings as they are.  Equal inputs write equal bytes.
"""

from __future__ import annotations

import numpy as np


def write_table(path, comment, columns, *cols):
    """Write equal-length columns ``cols`` under the header names ``columns``.

    ``comment`` is the text after ``# `` on the first line.  Each column is
    formatted once, through ``tolist``, so NumPy integers and floats are
    written as the Python numbers they hold (``str`` of a float is its
    shortest round-trip form).
    """
    cells = [list(map(str, np.asarray(c).tolist())) for c in cols]
    with open(path, "w") as fh:
        fh.write(f"# {comment}\n{','.join(columns)}\n")
        fh.write("".join([",".join(row) + "\n" for row in zip(*cells)]))
