"""Plain-text rows of floats: the one writer of float arrays to text files.

``trajectory.csv``, ``features.csv``, the ``gen-data`` CSVs and the value lines
of ``checkpoint.txt`` all go through here, and so do the small header-plus-rows
tables (``metrics.csv``, ``sweep.csv``, ``stats.csv``), whose cells the caller
has already formatted with ``format_cell``. A float is written as the ``repr``
of the Python float, the shortest text that parses back to the same value.
``ndarray.tolist()`` yields exactly those Python floats, so a block of rows is
converted in one call instead of one ``float()`` per cell. CSV lines are
byte-identical to what ``csv.writer`` in the excel dialect gives for such
cells: "," between cells, "\\r\\n" after each row, nothing quoted. A fixed
text cell that the dialect would quote (one holding ",", '"', "\\r" or
"\\n") raises ValueError instead.
"""

from __future__ import annotations

import math

import numpy as np

CSV_END = "\r\n"
# Rows converted and written per ``fh.write``; bounds the transient lists.
BLOCK_ROWS = 1024
_NEEDS_QUOTES = frozenset(',"\r\n')


def format_cell(x: float) -> str:
    """One number as text: "NaN" for NaN, otherwise the shortest round-trip repr."""
    return "NaN" if math.isnan(x) else repr(float(x))


def join_cells(cells) -> str:
    """Fixed text cells joined by ","; raises ValueError on a cell csv.writer would quote."""
    texts = [str(cell) for cell in cells]
    for text in texts:
        if not _NEEDS_QUOTES.isdisjoint(text):
            raise ValueError(f"cell {text!r} would need CSV quoting")
    return ",".join(texts)


def write_csv_table(path, rows) -> None:
    """Write a CSV file of fixed-cell rows, header row first, each through ``join_cells``."""
    with open(path, "w", newline="") as fh:
        fh.write("".join(join_cells(row) + CSV_END for row in rows))


def float_rows(block, sep: str = ",") -> list[str]:
    """Each row of a 2-d float block as its values' reprs joined by ``sep``."""
    return [sep.join(map(repr, row)) for row in np.asarray(block, dtype=float).tolist()]


def write_csv_rows(fh, block, lead=None, tail=None) -> None:
    """Write each row of a 2-d float block as one CSV line.

    Line i is ``lead[i]``, the floats of row i and ``tail[i]``, joined by ",".
    ``lead`` and ``tail`` hold each row's fixed cells already joined by
    ``join_cells``, or are None for no such cells. Rows are converted and
    written ``BLOCK_ROWS`` at a time, one ``fh.write`` per block.

    Raises:
        ValueError: the block is not 2-d, has no column (csv.writer would
            quote a lone empty cell), or its row count differs from
            ``lead``/``tail``.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[1] == 0:
        raise ValueError(f"need a 2-d float block with at least one column, got shape {block.shape}")
    if any(cells is not None and len(cells) != block.shape[0] for cells in (lead, tail)):
        raise ValueError(f"lead and tail need one entry per row of the {block.shape[0]}-row block")
    for start in range(0, block.shape[0], BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        groups = [float_rows(block[start:stop])]
        if lead is not None:
            groups.insert(0, lead[start:stop])
        if tail is not None:
            groups.append(tail[start:stop])
        fh.write("".join([",".join(cells) + CSV_END for cells in zip(*groups)]))
