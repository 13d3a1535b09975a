"""CSV ingestion, geographic coordinate conversion, standardization.

Files are plain RFC-4180 CSV in UTF-8.  `csv.reader` reads the header;
numpy's `loadtxt` then parses the data lines in one pass from the open
file, splitting quoted fields as `csv.reader` does, and the response
columns go once through the composition gate `simplex.as_composition_matrix`
(finite, nonnegative, sums within `SUM_TOL` of 1, then re-closed row by
row).  Only a file that numpy refuses (a field that is not a finite number
or that only Python's `float` reads, a short row, a byte that is not UTF-8,
a row that fails the gate) is read again, by a `csv.reader` loop one field
at a time, which returns the same arrays or raises with the physical line
and column; a response row that is not a composition is rejected with its
line rather than silently closed.  A column named twice (as response and
predictor, or by two spellings of one index) is rejected once the names
are resolved to file positions.  Floats are written with shortest
round-trip formatting so a load / export / load cycle is value-exact.
"""

import csv
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError, ValidationError
from .neighbors import _CHUNK_BYTES, _row_blocks
from .simplex import (_as_floats, _composition_fault, _plain, _refuse, as_composition_matrix,
                      as_predictor_matrix)


@dataclass(frozen=True)
class DatasetSchema:
    """Which CSV columns hold responses and predictors.

    Names are header labels when has_header is true, otherwise 0-based
    column indices given as strings.  A column named twice is rejected by
    `load_csv`, once the names are resolved to file positions.
    """

    response_cols: tuple
    predictor_cols: tuple = ()
    delimiter: str = ","
    has_header: bool = True

    def __post_init__(self):
        resp = tuple(str(c) for c in self.response_cols)
        pred = tuple(str(c) for c in self.predictor_cols)
        if not resp and not pred:
            raise ValidationError("schema names no columns")
        if resp and len(resp) < 2:
            raise ValidationError("need at least 2 response columns")
        if len(self.delimiter) != 1:
            raise ValidationError(f"delimiter must be one character, got {self.delimiter!r}")
        object.__setattr__(self, "response_cols", resp)
        object.__setattr__(self, "predictor_cols", pred)


def _column_positions(schema, header, path):
    """File positions of the response and predictor columns.

    header is None for a headerless file, whose names are 0-based indices;
    distinct spellings of one index ("1", "01") are caught as duplicates.
    """
    names = schema.response_cols + schema.predictor_cols
    n_resp = len(schema.response_cols)
    positions = []
    for i, name in enumerate(names):
        try:
            pos = int(name) if header is None else header.index(name)
        except ValueError:
            if header is not None:
                raise ValidationError(f"{path}: column {name!r} not in header {header}") from None
            raise ValidationError(
                f"{path}: without a header, columns must be integer indices, got {name!r}"
            ) from None
        if pos < 0:
            raise ValidationError(f"{path}: column index {name!r} is negative; indices start at 0")
        if pos in positions:
            first = positions.index(pos)
            what = ("column listed as both response and predictor"
                    if (first < n_resp) != (i < n_resp) else "duplicate column")
            raise ValidationError(f"{path}: {what}: {names[first]!r} and {name!r} are both "
                                  f"column {pos}")
        positions.append(pos)
    return positions[:n_resp], positions[n_resp:]


def _parse_numbers(fh, delimiter, positions, n_resp):
    # (A, U) from one numpy pass over the rest of fh and one gate; None if either fails.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a file without rows
            A = np.loadtxt(fh, delimiter=delimiter, usecols=positions, comments=None,
                           quotechar='"', ndmin=2, dtype=float)
        U = as_composition_matrix(A[:, :n_resp]) if n_resp else None
    # TypeError: a newline or quote delimiter.  ValueError: an unparsable
    # field, a byte that is not UTF-8, or the gate's ValidationError.
    except (TypeError, ValueError):
        return None
    return (A, U) if len(A) and np.isfinite(A[:, n_resp:]).all() else None


def _parse_rows(reader, path, schema, positions, n_resp):
    # One field at a time, naming the physical line of the first fault.
    rows, line_nums = [], []
    needed = max(positions) + 1
    for row in reader:
        if not row:
            continue  # tolerate blank lines
        if len(row) < needed:
            raise ValidationError(
                f"{path}: line {reader.line_num}: expected at least "
                f"{needed} fields, got {len(row)}"
            )
        values = []
        for pos, name in zip(positions, schema.response_cols + schema.predictor_cols):
            text = row[pos].strip()
            try:
                v = float(text)
            except ValueError:
                raise ValidationError(
                    f"{path}: line {reader.line_num}: column {name!r}: "
                    f"cannot parse {text!r} as a number"
                ) from None
            if not math.isfinite(v):
                raise ValidationError(
                    f"{path}: line {reader.line_num}: column {name!r}: "
                    f"non-finite value {text!r}"
                )
            values.append(v)
        rows.append(values)
        line_nums.append(reader.line_num)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    A = np.asarray(rows, dtype=float)
    try:
        return A, as_composition_matrix(A[:, :n_resp]) if n_resp else None
    except ValidationError:
        row, reason = _composition_fault(A[:, :n_resp])
        raise ValidationError(
            f"{path}: line {line_nums[row]}: response columns: {reason}") from None


def _read(fh, path, schema):
    # (A, U): every named column, and the responses through the gate.
    reader = csv.reader(fh, delimiter=schema.delimiter)
    header = None
    if schema.has_header:
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValidationError(f"{path}: file is empty") from None
        except csv.Error as err:  # e.g. a field over csv.field_size_limit()
            raise ValidationError(f"{path}: line {reader.line_num}: {err}") from None
    resp_pos, pred_pos = _column_positions(schema, header, path)
    positions, n_resp = resp_pos + pred_pos, len(resp_pos)
    parsed = _parse_numbers(fh, schema.delimiter, positions, n_resp)
    if parsed is not None:
        return parsed
    fh.seek(0)
    reader = csv.reader(fh, delimiter=schema.delimiter)
    if schema.has_header:
        next(reader)
    try:
        return _parse_rows(reader, path, schema, positions, n_resp)
    except csv.Error as err:
        raise ValidationError(f"{path}: line {reader.line_num}: {err}") from None


def _undecodable_byte(path):
    # (physical line, byte) of the file's first byte that is not UTF-8.
    # Lines split as csv.reader splits them; surrogateescape decodes such
    # a byte b to the lone surrogate U+DC00 + b.
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for num, line in enumerate(fh, 1):
            bad = re.search("[\udc80-\udcff]", line)
            if bad:
                return num, ord(bad.group()) - 0xDC00


def load_csv(path, schema):
    """Read (X, U) from a CSV file according to `schema`.

    Returns predictors (n, p) and validated compositions (n, D); either
    is None when the schema names no columns of that kind.  Malformed
    fields, short rows, bytes that are not UTF-8 and response rows that
    are not compositions are rejected with the physical line number.
    """
    path = str(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            A, U = _read(fh, path, schema)
    except UnicodeDecodeError:
        num, byte = _undecodable_byte(path)
        raise ValidationError(f"{path}: line {num}: not UTF-8 text (byte {byte:#04x})") from None
    X = as_predictor_matrix(A[:, len(schema.response_cols):]) if schema.predictor_cols else None
    return X, U


# Delimiters that occur in no float repr and that csv.writer does not quote.
_PLAIN_DELIMITERS = (",", ";", "\t", "|", " ")


def write_csv(path_or_file, columns, names, delimiter=","):
    """Write named float columns with shortest round-trip formatting.

    Accepts a path or an open text stream (for piping to stdout).
    """
    arrays = [_as_floats(c, "column") for c in columns]
    if len(arrays) != len(names):
        raise ValidationError("one name per column required")
    n = arrays[0].shape[0]
    if any(a.ndim != 1 or a.shape[0] != n for a in arrays):
        raise ValidationError("columns must be 1-D and equal length")

    def emit(fh):
        # csv.writer writes a float as its repr.  Blocks bound the Python
        # copy: a float object and its list slot, 32 bytes, per value, and
        # one block's list is freed before the next is made.  A delimiter
        # that no float repr holds never needs quoting, so those rows are
        # joined directly, byte for byte what csv.writer writes.
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(names)
        writerows = writer.writerows
        if delimiter in _PLAIN_DELIMITERS:
            writerows = lambda rows: fh.writelines(  # noqa: E731
                delimiter.join(map(repr, row)) + "\r\n" for row in rows)
        for b in _row_blocks(n, 32 * len(arrays), _CHUNK_BYTES // 64):
            writerows(np.column_stack([a[b] for a in arrays]).tolist())

    if hasattr(path_or_file, "write"):
        emit(path_or_file)
    else:
        with open(path_or_file, "w", newline="", encoding="utf-8") as fh:
            emit(fh)


def write_dataset_csv(path, X, U):
    """Write predictors and responses side by side, comma-separated, under
    the header x1..xp, y1..yD; X may be None for responses only."""
    U = as_composition_matrix(U)
    columns = []
    names = []
    if X is not None:
        X = as_predictor_matrix(X)
        if X.shape[0] != U.shape[0]:
            raise ValidationError(
                f"predictors have {X.shape[0]} rows, responses {U.shape[0]}"
            )
        columns += [X[:, j] for j in range(X.shape[1])]
        names += [f"x{j + 1}" for j in range(X.shape[1])]
    columns += [U[:, j] for j in range(U.shape[1])]
    names += [f"y{j + 1}" for j in range(U.shape[1])]
    write_csv(path, columns, names)


def latlon_to_euclidean(lat, lon):
    """Degrees latitude/longitude to points on the unit sphere.

    Returns (cos lat cos lon, cos lat sin lon, sin lat) stacked on the
    last axis, so distances between nearby sites approximate great-circle
    distances without a dateline seam.
    """
    lat = _as_floats(lat, "latitude")
    lon = _as_floats(lon, "longitude")
    if lat.shape != lon.shape:
        raise ValidationError(f"shape mismatch: {lat.shape} vs {lon.shape}")
    for name, arr, limit in (("latitude", lat, 90), ("longitude", lon, 180)):
        _refuse(np.ravel(~(np.abs(arr) <= limit)), lambda i: f"row {i}: {name} "
                f"{_plain(arr.flat[i])!r} outside [-{limit}, {limit}] degrees", OutOfRangeError)
    phi = np.radians(lat)
    lam = np.radians(lon)
    return np.stack(
        [np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)],
        axis=-1,
    )


def standardize(X):
    """Center and scale columns by mean and sample standard deviation.

    Returns (X_std, center, scale) with scale computed using n - 1.
    Constant columns and columns too large to square are rejected by index.
    """
    X = as_predictor_matrix(X)
    if X.shape[0] < 2:
        raise ValidationError("need at least 2 rows to standardize")
    # |x - mean| <= 2 max|x|, so below this bound the n squares sum finitely.
    _refuse(np.abs(X).max(axis=0) > math.sqrt(np.finfo(float).max / len(X)) / 4,
            lambda j: f"column {j} is too large to standardize")
    center = X.mean(axis=0)
    scale = X.std(axis=0, ddof=1)
    _refuse(scale == 0, lambda j: f"column {j} is constant")
    return (X - center) / scale, center, scale


def apply_standardization(X, center, scale):
    """Apply a previously fitted centering and scaling, both finite."""
    X = as_predictor_matrix(X)
    center = _as_floats(center, "center")
    scale = _as_floats(scale, "scale")
    if center.shape != (X.shape[1],) or scale.shape != (X.shape[1],):
        raise ValidationError(f"center/scale of shapes {center.shape}/{scale.shape} do not "
                              f"match {X.shape[1]} columns")
    _refuse(~(scale > 0), lambda j: (
        f"scale of column {j} must be positive, got {_plain(scale[j])!r}"))
    _refuse(~(np.isfinite(center) & np.isfinite(scale)), lambda j: (
        f"column {j}: center {_plain(center[j])!r} and scale {_plain(scale[j])!r} must be finite"))
    # |x - center| / 2 below max / 2 * min(scale, 1) keeps both steps finite.
    _refuse(np.abs(X).max(axis=0) / 2 + np.abs(center) / 2
            > np.finfo(float).max / 2 * np.minimum(scale, 1.0), lambda j: (
                f"column {j} is too large to standardize by center "
                f"{_plain(center[j])!r} and scale {_plain(scale[j])!r}"))
    return (X - center) / scale
