"""CSV, Matrix Market and report file handling shared by the CLI.

The numeric CSV loaders share one row parser, NumPy's C reader
(`np.loadtxt`: `,` delimiter, no comments, no quoting). A field reads as
`float()` reads it, except that digit-separator underscores (`1_000`) are
rejected. Lines holding only blanks and commas are skipped. Errors carry
the 1-based line number, counting header and skipped lines. The first
parse hands the reader the file's path, so that it reads the file in
chunks rather than line by line in Python.

`load_dataset_csv(path, dtype=np.int64)` reads integer data, such as head
counts, without a float round trip: the first parse asks the reader for
int64. A file it rejects (a `3.0` or `1e2` field, a value past int64, a
blank-and-comma line) is read as float64 exactly as without `dtype`, so
it loads the same values and a bad file names the same line.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import warnings

import numpy as np

from .distributions import DiscreteDistribution, MomentVector, PLAIN


class CsvFormatError(ValueError):
    """A malformed row; carries the 1-based line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def _has_fields(line):
    return bool(line.replace(",", "").strip())


def _parse(lines, skip=0, dtype=np.float64):
    with warnings.catch_warnings():  # no rows is reported by the callers
        warnings.simplefilter("ignore", UserWarning)
        # NumPy 1.x reads "3.0" into an integer dtype with a DeprecationWarning;
        # as an error it fails that parse, as it does in NumPy 2
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, skiprows=skip, dtype=dtype)


# np.loadtxt opens a str path through np.lib._datasource, which fetches URLs
# and decompresses by these suffixes
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _plain_name(path, fh):
    """`path` as a str that np.loadtxt opens as the very file `fh` holds,
    else None. Names with a colon (every URL scheme needs one) or a
    compressed suffix, and unseekable files, keep the handle parse."""
    name = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
    if isinstance(name, str) and ":" not in name and not name.endswith(_COMPRESSED) and fh.seekable():
        return name
    return None


def _after(fh, skip):
    fh.seek(0)
    for _ in range(skip):
        fh.readline()
    return fh


def _numeric_rows(path, skip=0, width=None, dtype=np.float64):
    """The rows after line `skip` as a 2-D array, each of `width` fields
    (default: the first row's). The parser first reads the file itself,
    from its path where that names the same plain file, and skips empty
    lines: as `dtype`, then, if that fails and `dtype` is not float64, as
    float64. Only if both fail are the lines re-read as float64 through a
    filter that also drops blank-and-comma-only lines, none held past its
    parse. Bad rows and no rows raise CsvFormatError."""
    with open(path) as fh:  # a missing or unreadable file fails here, as before
        name = _plain_name(path, fh)
        rows = None
        for as_dtype in [dtype] if np.dtype(dtype) == np.float64 else [dtype, np.float64]:
            try:
                rows = _parse(name, skip, as_dtype) if name else _parse(_after(fh, skip), dtype=as_dtype)
                break
            except ValueError:
                pass
        else:
            try:
                rows = _parse(line for line in _after(fh, skip) if _has_fields(line))
            except ValueError:
                pass
    if rows is not None and rows.size and width in (None, rows.shape[1]):
        return rows
    _raise_bad_row(path, skip, width)


def _raise_bad_row(path, skip, width):
    """Error path only: parse line by line to name the first bad row."""
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if line_no <= skip or not _has_fields(line):
                continue
            try:
                fields = _parse([line]).shape[1]
            except ValueError:
                raise CsvFormatError(path, line_no, "non-numeric field") from None
            width = width or fields
            if fields != width:
                raise CsvFormatError(path, line_no, "wrong number of fields")
    raise CsvFormatError(path, skip + 1, "no data rows")


def _header(path):
    with open(path) as fh:
        line = fh.readline()
    if not line:
        raise CsvFormatError(path, 1, "empty file")
    return [h.strip() for h in line.split(",")]


def save_distribution_csv(dist, path):
    """Header x,weight (or x1,x2[,x3],weight); 17-digit decimal floats."""
    d = dist.d
    header = ["x"] if d == 1 else [f"x{i + 1}" for i in range(d)]
    header.append("weight")
    support = dist.support if d > 1 else dist.support[:, None]
    table = np.column_stack([support, dist.weights])
    row = ",".join(["%.17g"] * (d + 1)) + "\r\n"  # csv.writer's line end
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write(row * table.shape[0] % tuple(table.ravel().tolist()))


def load_distribution_csv(path):
    """Inverse of save_distribution_csv; renormalizes with a warning when
    the weights sum more than 1e-6 away from 1."""
    header = _header(path)
    d = len(header) - 1
    expected = {1: ["x", "weight"], 2: ["x1", "x2", "weight"], 3: ["x1", "x2", "x3", "weight"]}
    if expected.get(d) != header:
        raise CsvFormatError(path, 1, f"unexpected header {header!r}")
    data = _numeric_rows(path, skip=1, width=d + 1)
    support = data[:, 0] if d == 1 else data[:, :d]
    weights = data[:, -1]
    total = weights.sum()
    if abs(total - 1.0) > 1e-6:
        warnings.warn(f"{path}: weights sum to {total:.9g}; renormalizing")
    if total <= 0:
        raise CsvFormatError(path, 2, "weights sum to zero")
    return DiscreteDistribution(support, weights / total)


def load_dataset_csv(path, dtype=np.float64):
    """Rows of one value per dimension, all of one width; a 1-D array for
    one column. Line 1 is a header, and skipped, when it does not parse as
    float64. With an integer `dtype` the rows are first parsed as that
    type; a file that does not parse so (a `3.0` or `1e2` field, a value
    out of range, a line of blanks and commas) is read as float64, with the
    values and the errors it has without `dtype`."""
    with open(path) as fh:
        first = fh.readline()
    try:
        _parse([first])
        skip = 0
    except ValueError:
        skip = 1
    data = _numeric_rows(path, skip=skip, dtype=dtype)
    return data[:, 0] if data.shape[1] == 1 else data


def save_moments_csv(moments, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "m"])
        for j, value in enumerate(moments.values, start=1):
            writer.writerow([j, "%.17g" % value])


def load_moments_csv(path):
    """Header j,m, then rows j,m with integer indices 1..k in order; plain
    convention."""
    header = _header(path)
    if header != ["j", "m"]:
        raise CsvFormatError(path, 1, f"unexpected header {header!r}")
    rows = _numeric_rows(path, skip=1, width=2)
    if not np.array_equal(rows[:, 0], np.arange(1, rows.shape[0] + 1)):
        raise ValueError(f"{path}: moment indices must be the integers 1..k in order")
    return MomentVector(rows[:, 1], PLAIN)


def load_matrix(path):
    """Dense symmetric matrix from Matrix Market (.mtx, `symmetric`
    qualifier honored) or a dense CSV of rows."""
    text = str(path)
    if text.endswith(".mtx"):
        import scipy.io

        mat = scipy.io.mmread(text)
        dense = np.asarray(mat.todense() if hasattr(mat, "todense") else mat, dtype=float)
    else:
        dense = _numeric_rows(text)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValueError(f"{path}: matrix is not square")
    return dense


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_json_report(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
