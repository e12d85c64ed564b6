"""Text of the large per-node output files: %.17g texts and chunked rows."""
from __future__ import annotations

import numpy as np

# rows joined by one call: bounds the size of each written string
CHUNK_ROWS = 1024

# the largest share of distinct values at which formatting each distinct
# value once and gathering the texts beats formatting every value
DISTINCT_SHARE = 0.7


def _formatted(values):
    """["%.17g" % v for v in values] of float64 values, by one % on the
    template repeated."""
    return ("%.17g\n" * values.size % tuple(values.tolist())).split("\n")[:-1]


def _gathered(values):
    """The %.17g texts of a 1-D float64 array as a list, each distinct bit
    pattern formatted once and its text gathered to every place it occurs;
    None where more than DISTINCT_SHARE of them are distinct.  Deciding
    costs one sort."""
    bits = values.view(np.int64)
    ordered = np.sort(bits)
    if np.count_nonzero(ordered[1:] != ordered[:-1]) >= \
            DISTINCT_SHARE * bits.size:
        return None
    distinct, where = np.unique(bits, return_inverse=True)
    texts = np.array(_formatted(distinct.view(np.float64)), dtype=object)
    return texts[where].tolist()


def g17_texts(values):
    """["%.17g" % v for v in values] of a 1-D float64 array, as a list.

    Where repeats pay, each distinct bit pattern is formatted once:
    mirror-symmetric solutions and zero-normal atoms repeat most of their
    values.  Bit patterns, not values, are told apart, so -0.0, NaN and the
    infinities keep their own text.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    texts = _gathered(values)
    return _formatted(values) if texts is None else texts


def write_g17_lines(fh, values):
    """Write each v of a 1-D float64 array to fh as a "%.17g" line, in
    order: the lines of g17_texts(values), or, where repeats do not pay,
    each chunk formatted by one % without splitting it into texts."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    texts = _gathered(values)
    if texts is not None:
        write_rows(fh, [texts])
        return
    floats = values.tolist()
    for lo in range(0, len(floats), CHUNK_ROWS):
        part = floats[lo:lo + CHUNK_ROWS]
        fh.write("%.17g\n" * len(part) % tuple(part))


def write_rows(fh, columns):
    """Write row i of the equal-length text columns to fh for every i, in
    order: its texts joined by commas, and a newline."""
    for lo in range(0, len(columns[0]), CHUNK_ROWS):
        rows = zip(*(c[lo:lo + CHUNK_ROWS] for c in columns))
        fh.write("\n".join(map(",".join, rows)) + "\n")
