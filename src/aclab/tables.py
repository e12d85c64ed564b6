"""Text of every CSV aclab writes: the text of a table value, the %.17g
texts of a float column, and the one chunked writer."""
from __future__ import annotations

import numpy as np

# rows joined by one call: bounds the size of each written string
CHUNK_ROWS = 1024


def text(v):
    """The CSV text of a table value: a bool or an int its decimal, a float
    %.17g, anything else its str; a str holding a comma, a double quote, a
    "\\n" or a "\\r" is quoted, as RFC 4180 and csv.writer() quote it."""
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v
    if isinstance(v, (int, np.integer, np.bool_)):
        return str(int(v))
    if isinstance(v, str) and ("," in v or '"' in v or "\n" in v or "\r" in v):
        return '"%s"' % v.replace('"', '""')
    return str(v)


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


def write_csv(path, header, columns):
    """Write the header line and the equal-length text columns to path:
    line i + 1 holds text i of every column, joined by commas.  The texts
    come from text or g17_texts; no columns write the header alone."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]) if columns else 0, CHUNK_ROWS):
            rows = zip(*(c[lo:lo + CHUNK_ROWS] for c in columns))
            fh.write("\n".join(map(",".join, rows)) + "\n")
