"""Text of the varifold atom files: %.17g texts and chunked rows."""
from __future__ import annotations

import numpy as np

# rows joined by one call: bounds the size of each written string
CHUNK_ROWS = 1024


def g17_texts(values):
    """["%.17g" % v for v in values] of a 1-D float64 array, as a list.

    Each distinct bit pattern is formatted once, by one % on the template
    repeated, and its text gathered to every place it occurs:
    mirror-symmetric solutions and zero-normal atoms repeat most of their
    values.  Bit patterns, not values, are told apart, so -0.0, NaN and the
    infinities keep their own text.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, where = np.unique(bits, return_inverse=True)
    texts = ("%.17g\n" * distinct.size
             % tuple(distinct.view(np.float64).tolist())).split("\n")[:-1]
    return np.array(texts, dtype=object)[where].tolist()


def write_rows(fh, columns):
    """Write row i of the equal-length text columns to fh for every i, in
    order: its texts joined by commas, and a newline."""
    for lo in range(0, len(columns[0]), CHUNK_ROWS):
        rows = zip(*(c[lo:lo + CHUNK_ROWS] for c in columns))
        fh.write("\n".join(map(",".join, rows)) + "\n")
