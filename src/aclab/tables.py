"""Chunked row formatting for the large per-node output files."""
from __future__ import annotations

# rows formatted by one % call: bounds the size of each formatted string
CHUNK_ROWS = 1024


def write_rows(fh, row, columns):
    """Write row % (c[i] for c in columns) to fh for every row i, in order.

    columns are equal-length lists.  Each chunk of rows is formatted by one
    % on the row template repeated, which gives the bytes of formatting the
    rows one by one.
    """
    m = len(columns)
    for lo in range(0, len(columns[0]), CHUNK_ROWS):
        parts = [c[lo:lo + CHUNK_ROWS] for c in columns]
        k = len(parts[0])
        flat = [None] * (k * m)
        for j, part in enumerate(parts):
            flat[j::m] = part
        fh.write(row * k % tuple(flat))
