"""CSV ingestion, coordinate conversion, standardization.

Error paths must name the physical line of the offending row; a write /
load cycle must be value-exact thanks to shortest round-trip float
formatting.
"""

import csv
import io
import math
import warnings

import numpy as np
import pytest

from simplexreg import ingestion
from simplexreg import (
    DatasetSchema,
    OutOfRangeError,
    ValidationError,
    apply_standardization,
    latlon_to_euclidean,
    load_csv,
    standardize,
    write_csv,
    write_dataset_csv,
)


@pytest.fixture
def simple_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "x1,y1,y2,y3\n"
        "0.5,0.2,0.3,0.5\n"
        "1.5,0.1,0.1,0.8\n"
        "2.5,0.25,0.25,0.5\n"
    )
    return path


SCHEMA = DatasetSchema(response_cols=("y1", "y2", "y3"), predictor_cols=("x1",))


class TestDatasetSchema:
    def test_basic(self):
        s = DatasetSchema(response_cols=("a", "b"))
        assert s.response_cols == ("a", "b")
        assert s.predictor_cols == ()

    def test_predictors_only_allowed(self):
        s = DatasetSchema(response_cols=(), predictor_cols=("x",))
        assert s.response_cols == ()

    def test_empty_schema_rejected(self):
        with pytest.raises(ValidationError):
            DatasetSchema(response_cols=())

    def test_single_response_rejected(self):
        with pytest.raises(ValidationError):
            DatasetSchema(response_cols=("y1",))

    def test_delimiter_validated(self):
        with pytest.raises(ValidationError):
            DatasetSchema(response_cols=("a", "b"), delimiter=", ")


class TestLoadCsv:
    def test_reads_values(self, simple_csv):
        X, U = load_csv(simple_csv, SCHEMA)
        assert X.shape == (3, 1)
        assert U.shape == (3, 3)
        assert np.array_equal(X[:, 0], [0.5, 1.5, 2.5])
        assert np.array_equal(U[2], [0.25, 0.25, 0.5])

    def test_responses_only(self, simple_csv):
        schema = DatasetSchema(response_cols=("y1", "y2", "y3"))
        X, U = load_csv(simple_csv, schema)
        assert X is None
        assert U.shape == (3, 3)

    def test_predictors_only(self, simple_csv):
        schema = DatasetSchema(response_cols=(), predictor_cols=("x1", "y1"))
        X, U = load_csv(simple_csv, schema)
        assert U is None
        assert X.shape == (3, 2)

    def test_column_order_follows_schema(self, simple_csv):
        schema = DatasetSchema(response_cols=("y3", "y1"), predictor_cols=("x1",))
        with pytest.raises(ValidationError):
            # y3 + y1 does not sum to 1, so ingestion must reject it
            load_csv(simple_csv, schema)

    def test_bad_sum_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y1,y2\n0.5,0.5\n0.6,0.5\n")
        with pytest.raises(ValidationError, match="line 3"):
            load_csv(path, DatasetSchema(response_cols=("y1", "y2")))

    def test_row_bits_independent_of_other_rows(self, tmp_path):
        # The first row sums to 1 + 4.4e-16 and stays as read; the second
        # row's 5e-10 deviation must not force a division on it.
        r0 = [0.1, 0.2, 0.3, 0.4 + 4.4e-16]
        r1 = [0.1, 0.2, 0.3, 0.4 + 5e-10]
        schema = DatasetSchema(response_cols=("y1", "y2", "y3", "y4"))
        loaded = []
        for rows in ([r0, r1], [r0]):
            path = tmp_path / f"rows{len(rows)}.csv"
            path.write_text("y1,y2,y3,y4\n" + "".join(
                ",".join(repr(v) for v in row) + "\n" for row in rows))
            loaded.append(load_csv(path, schema)[1])
        assert np.array_equal(loaded[0][0], loaded[1][0])
        assert np.array_equal(loaded[1][0], r0)

    def test_tolerant_reclose(self, tmp_path):
        path = tmp_path / "close.csv"
        path.write_text("y1,y2\n0.5,0.5000000004\n")
        _, U = load_csv(path, DatasetSchema(response_cols=("y1", "y2")))
        assert abs(U[0].sum() - 1.0) <= 1e-12

    def test_negative_named(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("y1,y2\n1.2,-0.2\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_csv(path, DatasetSchema(response_cols=("y1", "y2")))

    def test_unparsable_field_named(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("y1,y2\n0.5,0.5\nabc,0.5\n")
        with pytest.raises(ValidationError, match="line 3.*'y1'"):
            load_csv(path, DatasetSchema(response_cols=("y1", "y2")))

    def test_nonfinite_field_named(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("y1,y2\ninf,0.5\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_csv(path, DatasetSchema(response_cols=("y1", "y2")))

    def test_short_row_named(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("y1,y2\n0.5,0.5\n0.5\n")
        with pytest.raises(ValidationError, match="line 3"):
            load_csv(path, DatasetSchema(response_cols=("y1", "y2")))

    def test_missing_column_listed(self, simple_csv):
        schema = DatasetSchema(response_cols=("y1", "nope"))
        with pytest.raises(ValidationError, match="nope"):
            load_csv(simple_csv, schema)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("y1,y2\n")
        with pytest.raises(ValidationError, match="no data rows"):
            load_csv(path, DatasetSchema(response_cols=("y1", "y2")))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("")
        with pytest.raises(ValidationError):
            load_csv(path, DatasetSchema(response_cols=("y1", "y2")))

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("y1,y2\n0.5,0.5\n\n0.25,0.75\n")
        _, U = load_csv(path, DatasetSchema(response_cols=("y1", "y2")))
        assert U.shape == (2, 2)

    def test_headerless_integer_positions(self, tmp_path):
        path = tmp_path / "nohead.csv"
        path.write_text("3.0,0.25,0.75\n4.0,0.5,0.5\n")
        schema = DatasetSchema(
            response_cols=("1", "2"), predictor_cols=("0",), has_header=False
        )
        X, U = load_csv(path, schema)
        assert np.array_equal(X[:, 0], [3.0, 4.0])
        assert np.array_equal(U[0], [0.25, 0.75])

    def test_headerless_requires_integers(self, tmp_path):
        path = tmp_path / "nohead2.csv"
        path.write_text("0.25,0.75\n")
        schema = DatasetSchema(response_cols=("a", "b"), has_header=False)
        with pytest.raises(ValidationError, match="integer"):
            load_csv(path, schema)

    @pytest.mark.parametrize("resp, pred, what, names, has_header", [
        (("1", "2"), ("01",), "both response and predictor", ("'1'", "'01'"), False),
        (("1", "2", "+2"), (), "duplicate column", ("'2'", "'+2'"), False),
        (("1", "2"), ("0", "00"), "duplicate column", ("'0'", "'00'"), False),
        (("a", "b"), ("b",), "both response and predictor", ("'b'",), True),
        (("a", "a", "b"), (), "duplicate column", ("'a'",), True),
    ])
    def test_headerless_aliases_of_one_column(self, tmp_path, resp, pred, what, names,
                                              has_header):
        # Two spellings of one index, or one header label named twice, name
        # the same file column; the schema accepts them and loading rejects.
        path = tmp_path / "alias.csv"
        path.write_text("a,b,c\n" * has_header + "3.0,0.25,0.75\n4.0,0.5,0.5\n")
        schema = DatasetSchema(response_cols=resp, predictor_cols=pred, has_header=has_header)
        with pytest.raises(ValidationError, match=what) as info:
            load_csv(path, schema)
        assert all(name in str(info.value) for name in names)

    def test_headerless_negative_index_rejected(self, tmp_path):
        path = tmp_path / "negative.csv"
        path.write_text("3.0,0.25,0.75\n4.0,0.5,0.5\n")
        schema = DatasetSchema(response_cols=("1", "2"), predictor_cols=("-3",), has_header=False)
        with pytest.raises(ValidationError, match="'-3' is negative"):
            load_csv(path, schema)

    def test_field_over_the_csv_limit(self, tmp_path, monkeypatch):
        long_field = "x" * 200_000
        quoted = tmp_path / "quoted.csv"
        quoted.write_text(f'y1,y2,note\n0.5,0.5,"a"\n0.25,"{long_field}",b\n')
        schema = DatasetSchema(response_cols=("y1", "y2"))
        with pytest.raises(ValidationError, match=r"quoted.csv: line 3: field larger"):
            load_csv(quoted, schema)
        # The numpy pass never parses the unused note column, so it reads
        # a long field there.
        plain = tmp_path / "plain.csv"
        plain.write_text(f"y1,y2,note\n0.5,0.5,a\n0.25,0.75,{long_field}\n")
        monkeypatch.setattr(ingestion, "_parse_rows", None)
        _, U = load_csv(plain, schema)
        assert np.array_equal(U, [[0.5, 0.5], [0.25, 0.75]])

    def test_header_over_the_csv_limit(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("y1,y2," + "h" * 200_000 + "\n0.5,0.5,1\n")
        with pytest.raises(ValidationError, match=r"head.csv: line 1: field larger"):
            load_csv(path, DatasetSchema(response_cols=("y1", "y2")))

    def test_semicolon_delimiter(self, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_text("y1;y2\n0.25;0.75\n")
        schema = DatasetSchema(response_cols=("y1", "y2"), delimiter=";")
        _, U = load_csv(path, schema)
        assert np.array_equal(U[0], [0.25, 0.75])

    def test_utf8_bom_is_not_part_of_the_header(self, simple_csv, tmp_path):
        # Spreadsheet programs often save CSV as UTF-8 with a byte order mark.
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + simple_csv.read_bytes())
        X, U = load_csv(bom, SCHEMA)
        X0, U0 = load_csv(simple_csv, SCHEMA)
        assert np.array_equal(X, X0) and np.array_equal(U, U0)


XY = DatasetSchema(response_cols=("y1", "y2"), predictor_cols=("x1",))
HEADERLESS = DatasetSchema(response_cols=("1", "2"), predictor_cols=("0",), has_header=False)
TAB = DatasetSchema(response_cols=("y1", "y2"), predictor_cols=("x1",), delimiter="\t")

# name -> (file text, schema); each is loaded by the numpy pass (with its
# fallback) and by the csv.reader loop alone.
PARSER_CORPUS = {
    "plain": ("x1,y1,y2\n0.5,0.25,0.75\n1.5,0.5,0.5\n", XY),
    "blank lines": ("x1,y1,y2\n\n0.5,0.25,0.75\n\n\n1.5,0.5,0.5\n\n", XY),
    "whitespace-only line": ("x1,y1,y2\n0.5,0.25,0.75\n   \n1.5,0.5,0.5\n", XY),
    "crlf": ("x1,y1,y2\r\n0.5,0.25,0.75\r\n1.5,0.5,0.5\r\n", XY),
    "bare cr": ("x1,y1,y2\r0.5,0.25,0.75\r1.5,0.5,0.5\r", XY),
    "bom": ("\ufeffx1,y1,y2\n0.5,0.25,0.75\n", XY),
    "no final newline": ("x1,y1,y2\n0.5,0.25,0.75", XY),
    "padded fields": ("x1,y1,y2\n 0.5 ,\t0.25, 0.75\n", XY),
    "plus sign": ("x1,y1,y2\n+1,+0.25,0.75\n", XY),
    "underscore digits": ("x1,y1,y2\n1_000,0.25,0.75\n", XY),
    "hex": ("x1,y1,y2\n0x10,0.25,0.75\n", XY),
    "nan": ("x1,y1,y2\nnan,0.25,0.75\n", XY),
    "inf": ("x1,y1,y2\n0.5,inf,0.75\n", XY),
    "overflow": ("x1,y1,y2\n1e400,0.25,0.75\n", XY),
    "hash in used field": ("x1,y1,y2\n0.5#c,0.25,0.75\n", XY),
    "hash in unused field": ("x1,y1,y2,note\n0.5,0.25,0.75,# c\n", XY),
    "extra columns": ("x1,y1,y2,z\n0.5,0.25,0.75,9\n1.5,0.5,0.5,8\n", XY),
    "ragged trailing columns": ("x1,y1,y2,z\n0.5,0.25,0.75,9,10\n1.5,0.5,0.5\n", XY),
    "short row": ("x1,y1,y2\n0.5,0.25,0.75\n1.5,0.5\n", XY),
    "trailing delimiter": ("x1,y1,y2\n0.5,0.25,0.75,\n1.5,0.5,0.5,\n", XY),
    "empty field": ("x1,y1,y2\n0.5,,0.75\n", XY),
    "tab delimiter": ("x1\ty1\ty2\n0.5\t0.25\t0.75\n", TAB),
    "comma under tab delimiter": ("x1\ty1\ty2\n0,5\t0.25\t0.75\n", TAB),
    "headerless": ("0.5,0.25,0.75\n1.5,0.5,0.5\n", HEADERLESS),
    "headerless blank first": ("\n0.5,0.25,0.75\n", HEADERLESS),
    "quoted comma": ('x1,z,y1,y2\n0.5,"a,b",0.25,0.75\n', XY),
    "quoted comma headerless": ('1,"a,b",2,3\n', DatasetSchema(
        response_cols=("0", "3"), has_header=False)),
    # Split at the quoted comma, columns 3 and 4 would read 0.75 and 0.75.
    "quoted comma shifting columns": ('0.25,"a,b",0.75,0.75,2\n', DatasetSchema(
        response_cols=("0", "3"), predictor_cols=("4",), has_header=False)),
    "doubled quote": ('x1,z,y1,y2\n0.5,"say ""hi""",0.25,0.75\n', XY),
    "quoted number": ('x1,y1,y2\n"0.5",0.25,"0.75"\n', XY),
    "quote mid field": ('x1,z,y1,y2\n0.5,a"b,0.25,0.75\n', XY),
    "quoted newline": ('x1,z,y1,y2\n0.5,"a\nb",0.25,0.75\n1.5,c,0.5,0.5\n', XY),
    # R's write.csv quotes the header and the row names.
    "R write.csv": ('"","x1","y1","y2"\n"1",0.5,0.25,0.75\n"2",1.5,0.5,0.5\n', XY),
    "R write.csv crlf": ('"","lake","x1","y1","y2"\r\n"1","L 1",0.5,0.25,0.75\r\n', XY),
    "negative zero": ("x1,y1,y2\n-0.0,-0.0,1.0\n", XY),
    "negative part": ("x1,y1,y2\n0.5,0.25,0.75\n0.5,-0.25,1.25\n", XY),
    "bad sum": ("x1,y1,y2\n0.5,0.25,0.75\n0.5,0.25,0.5\n", XY),
    "within tolerance": ("x1,y1,y2\n0.5,0.25,0.7500000001\n", XY),
    "header only": ("x1,y1,y2\n", XY),
    "empty file": ("", XY),
    "missing column": ("x1,y1\n0.5,0.25\n", XY),
    "responses only": ("y1,y2\n0.25,0.75\n", DatasetSchema(response_cols=("y1", "y2"))),
    "predictors only": ("x1,x2\n1,2\n3,nan\n", DatasetSchema(response_cols=(), predictor_cols=("x1", "x2"))),
    "semicolon": ("x1;y1;y2\n0,5;0.25;0.75\n", DatasetSchema(
        response_cols=("y1", "y2"), predictor_cols=("x1",), delimiter=";")),
    "quote delimiter": ('x1"y1"y2\n0.5"0.25"0.75\n', DatasetSchema(
        response_cols=("y1", "y2"), predictor_cols=("x1",), delimiter='"')),
}

# Unused-column fields and the ways a number can be padded or quoted.
_NOTES = ("a", '"a,b"', '"say ""hi"""', '""', 'a"b', '"a\nb"', '"a\r\nb"', '"x" ', ' "x"',
          '"a"b', '"', '"a,', "", "1e400", '"a\rb"')
_NUMBER_FORMS = ("{}", " {} ", '"{}"', '" {} "', '"{}" ', '"{}"0', '{}"', '"{}', '"{},"')


def _fuzz_file(rng):
    # Header x1,z,y1,y2 and one to three rows, each with a note in z and,
    # now and then, a number padded or quoted.
    lines = ["x1,z,y1,y2"]
    for _ in range(rng.integers(1, 4)):
        y1 = rng.choice(["0.25", "0.5", "0.125", "-0.0"])
        y2 = {"0.25": "0.75", "0.5": "0.5", "0.125": "0.875", "-0.0": "1"}[y1]
        fields = [rng.choice(["1", "-2.5", "+3"]), rng.choice(_NOTES), y1, y2]
        for j in (0, 2, 3):
            if rng.random() < 0.3:
                fields[j] = rng.choice(_NUMBER_FORMS).format(fields[j])
        lines.append(",".join(fields))
    eol = rng.choice(["\n", "\r\n"])
    return eol.join(lines) + rng.choice([eol, ""])


def _load_outcome(path, schema):
    try:
        return load_csv(path, schema)
    except Exception as err:  # compared by type and text
        return type(err), str(err)


def _same_outcome(a, b):
    if isinstance(a[0], type) or isinstance(b[0], type):
        return a == b
    return all(
        (x is None and y is None)
        or (x is not None and y is not None and x.dtype == y.dtype
            and np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y)))
        for x, y in zip(a, b)
    )


class TestNumpyPassAgreesWithLoop:
    @pytest.mark.parametrize("name", sorted(PARSER_CORPUS))
    def test_same_arrays_or_same_error(self, name, tmp_path, monkeypatch):
        text, schema = PARSER_CORPUS[name]
        path = tmp_path / "corpus.csv"
        path.write_bytes(text.encode("utf-8"))
        both = _load_outcome(path, schema)
        monkeypatch.setattr(ingestion, "_parse_numbers", lambda *args: None)
        loop_only = _load_outcome(path, schema)
        assert _same_outcome(both, loop_only), (both, loop_only)

    def test_loop_runs_only_when_needed(self, tmp_path, monkeypatch):
        looped = []
        parse_rows = ingestion._parse_rows
        monkeypatch.setattr(ingestion, "_parse_rows",
                            lambda *args: looped.append(True) or parse_rows(*args))
        fast = set()
        for name, (text, schema) in PARSER_CORPUS.items():
            path = tmp_path / "corpus.csv"
            path.write_bytes(text.encode("utf-8"))
            looped.clear()
            _load_outcome(path, schema)
            if not looped:
                fast.add(name)
        assert {"plain", "crlf", "bom", "tab delimiter", "headerless", "negative zero",
                "extra columns", "responses only", "quoted comma",
                "quoted comma shifting columns", "doubled quote", "quoted number",
                "quote mid field", "quoted newline", "R write.csv", "R write.csv crlf"} <= fast
        assert not fast & {"negative part", "bad sum", "nan", "short row", "header only",
                           "quote delimiter"}

    def test_quoted_fuzz_corpus(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(26)
        looped = []
        parse_rows = ingestion._parse_rows
        monkeypatch.setattr(ingestion, "_parse_rows",
                            lambda *args: looped.append(True) or parse_rows(*args))
        parse_numbers = ingestion._parse_numbers
        path = tmp_path / "fuzz.csv"
        fast = 0
        for _ in range(300):
            text = _fuzz_file(rng)
            path.write_bytes(text.encode("utf-8"))
            looped.clear()
            both = _load_outcome(path, XY)
            fast += '"' in text and not looped
            monkeypatch.setattr(ingestion, "_parse_numbers", lambda *args: None)
            loop_only = _load_outcome(path, XY)
            monkeypatch.setattr(ingestion, "_parse_numbers", parse_numbers)
            assert _same_outcome(both, loop_only), (text, both, loop_only)
        assert fast >= 50  # numpy read that many quoted files


class TestWriteCsv:
    def test_round_trip_value_exact(self, tmp_path):
        rng = np.random.default_rng(30)
        X = rng.normal(size=(25, 2))
        U = rng.dirichlet((2.0, 1.0, 3.0), size=25)
        path = tmp_path / "roundtrip.csv"
        write_dataset_csv(path, X, U)
        schema = DatasetSchema(
            response_cols=("y1", "y2", "y3"), predictor_cols=("x1", "x2")
        )
        X2, U2 = load_csv(path, schema)
        assert np.array_equal(X2, X)
        assert np.array_equal(U2, U)

    def test_default_column_names(self, tmp_path):
        path = tmp_path / "names.csv"
        write_dataset_csv(path, np.ones((2, 1)), np.tile([0.5, 0.5], (2, 1)))
        header = path.read_text().splitlines()[0]
        assert header == "x1,y1,y2"

    def test_writes_to_stream(self):
        buf = io.StringIO()
        write_csv(buf, [np.array([1.5]), np.array([2.5])], ["a", "b"])
        assert buf.getvalue().splitlines() == ["a,b", "1.5,2.5"]

    @pytest.mark.parametrize("budget", [None, 64 * 3 * 32 * 2])
    @pytest.mark.parametrize("delimiter", [",", ";", "\t", "."])
    def test_bytes_equal_per_value_repr_rows(self, monkeypatch, delimiter, budget):
        # csv.writer formats a float field as its repr, so whole blocks of
        # floats write what one repr per value wrote, quoting included;
        # the patched budget makes blocks of two rows.
        if budget is not None:
            monkeypatch.setattr(ingestion, "_CHUNK_BYTES", budget)
        values = [0.1, -0.0, 1e-300, 5e-324, math.inf, 1 / 3, -2.5e17]
        columns = [np.array(values), np.array(values[::-1]), np.arange(7.0)]
        names = ["a", "b", "c.d"]
        got = io.StringIO()
        write_csv(got, columns, names, delimiter=delimiter)
        expected = io.StringIO()
        writer = csv.writer(expected, delimiter=delimiter)
        writer.writerow(names)
        for i in range(len(values)):
            writer.writerow([repr(float(c[i])) for c in columns])
        assert got.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("delimiter", [",", ";", "\t", "|", " ", ".", "e", "1", ":"])
    def test_bytes_equal_csv_writer(self, tmp_path, delimiter):
        # Plain delimiters join the reprs directly; any other delimiter,
        # which a repr may hold and csv.writer then quotes, stays on
        # csv.writer.  Both must write csv.writer's bytes, to a path too.
        U = np.random.default_rng(31).dirichlet(np.ones(4), size=40)
        U[:5] = [[-0.0, 5e-324, 1e300, 1 / 3], [math.inf, 0.1, -2.5e17, 1e-7]] * 2 + [[1, 2, 3, 4]]
        names = ["y1", "y 2", "y|3", "y.4"]
        path = tmp_path / "out.csv"
        write_csv(path, list(U.T), names, delimiter=delimiter)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, delimiter=delimiter)
        writer.writerow(names)
        writer.writerows(U.tolist())
        assert path.read_bytes() == expected.getvalue().encode()

    def test_name_count_mismatch(self, tmp_path):
        with pytest.raises(ValidationError):
            write_csv(tmp_path / "x.csv", [np.ones(3)], ["a", "b"])

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_csv(tmp_path / "x.csv", [np.ones(3), np.ones(4)], ["a", "b"])


class TestLatLon:
    def test_cardinal_points(self):
        assert np.allclose(latlon_to_euclidean(0.0, 0.0), [1.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(latlon_to_euclidean(90.0, 77.0), [0.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(latlon_to_euclidean(0.0, 90.0), [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(latlon_to_euclidean(-90.0, 0.0), [0.0, 0.0, -1.0], atol=1e-12)

    def test_dateline_seam_closed(self):
        east = latlon_to_euclidean(10.0, 180.0)
        west = latlon_to_euclidean(10.0, -180.0)
        assert np.max(np.abs(east - west)) <= 1e-12

    def test_unit_norm(self):
        rng = np.random.default_rng(31)
        lat = rng.uniform(-90, 90, size=1000)
        lon = rng.uniform(-180, 180, size=1000)
        pts = latlon_to_euclidean(lat, lon)
        assert pts.shape == (1000, 3)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-12

    def test_chord_tracks_angle_locally(self):
        # nearby sites: chord length approximates great-circle distance
        a = latlon_to_euclidean(48.0, 2.0)
        b = latlon_to_euclidean(48.001, 2.0)
        chord = np.linalg.norm(a - b)
        arc = math.radians(0.001)
        assert abs(chord - arc) / arc <= 1e-6

    def test_range_rejected(self):
        with pytest.raises(OutOfRangeError):
            latlon_to_euclidean(91.0, 0.0)
        with pytest.raises(OutOfRangeError):
            latlon_to_euclidean(0.0, 180.5)

    def test_range_refusal_names_the_row(self):
        with pytest.raises(OutOfRangeError, match=r"^row 2: latitude -95\.5 outside \[-90, 90\] degrees$"):
            latlon_to_euclidean([0.0, 10.0, -95.5], [0.0, 0.0, 0.0])
        with pytest.raises(OutOfRangeError, match=r"^row 0: longitude 1e\+308 outside \[-180, 180\]"):
            latlon_to_euclidean([0.0, 10.0], [1e308, 0.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            latlon_to_euclidean(np.nan, 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            latlon_to_euclidean(np.zeros(3), np.zeros(4))


class TestStandardize:
    def test_two_point_column(self):
        Xs, center, scale = standardize(np.array([[0.0], [2.0]]))
        assert np.allclose(center, [1.0])
        assert np.allclose(scale, [math.sqrt(2.0)])
        assert np.allclose(Xs[:, 0], [-1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_columns_zero_mean_unit_sd(self):
        rng = np.random.default_rng(32)
        X = rng.normal(loc=5.0, scale=3.0, size=(200, 4))
        Xs, _, _ = standardize(X)
        assert np.max(np.abs(Xs.mean(axis=0))) <= 1e-12
        assert np.max(np.abs(Xs.std(axis=0, ddof=1) - 1.0)) <= 1e-12

    def test_apply_matches_fit(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(50, 3))
        Xs, center, scale = standardize(X)
        assert np.array_equal(apply_standardization(X, center, scale), Xs)

    def test_apply_to_new_rows(self):
        X = np.array([[0.0], [2.0]])
        _, center, scale = standardize(X)
        out = apply_standardization(np.array([[4.0]]), center, scale)
        assert np.allclose(out, [[3.0 / math.sqrt(2.0)]])

    def test_constant_column_named(self):
        X = np.column_stack([np.arange(5.0), np.full(5, 7.0)])
        with pytest.raises(ValidationError, match="column 1"):
            standardize(X)

    def test_single_row_rejected(self):
        with pytest.raises(ValidationError):
            standardize(np.ones((1, 2)))

    @pytest.mark.parametrize("big", [1e155, -1e155, 1e308])
    def test_column_too_large_named(self, big):
        X = np.column_stack([np.arange(4.0), [1.0, 2.0, big, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^column 1 is too large to standardize$"):
                standardize(X)

    def test_large_column_below_the_bound_scaled(self):
        # Values up to sqrt(finfo.max / n) / 4 square and sum finitely.
        X = np.column_stack([np.arange(4.0), [1e153, -1e153, 0.0, 5e152]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Xs, _, scale = standardize(X)
        assert np.isfinite(Xs).all() and np.isfinite(scale).all()

    def test_apply_validates_shapes(self):
        with pytest.raises(ValidationError):
            apply_standardization(np.ones((3, 2)), np.zeros(3), np.ones(3))
        with pytest.raises(ValidationError):
            apply_standardization(np.ones((3, 2)), np.zeros(2), np.array([1.0, 0.0]))

    def test_apply_names_the_nonpositive_scale(self):
        with pytest.raises(ValidationError, match=r"^scale of column 1 must be positive, got 0\.0$"):
            apply_standardization(np.ones((3, 2)), np.zeros(2), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("X, center, scale, j", [
        ([[1.0, 1e308]], [0.0, 0.0], [1.0, 0.5], 1),  # the division overflows
        ([[1e308, 1.0]], [-1e308, 0.0], [1.0, 1.0], 0),  # the subtraction overflows
        ([[1.0, 2.0]], [0.0, 0.0], [5e-324, 1.0], 0),  # a tiny scale
    ])
    def test_apply_refuses_an_overflowing_column(self, X, center, scale, j):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match=rf"^column {j} is too large to standardize by center "):
                apply_standardization(X, center, scale)

    def test_apply_keeps_large_finite_columns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_standardization([[1e308, 1.0]], [-1e307, 0.0], [2.0, 1e-300])
        assert np.array_equal(out, [[(1e308 + 1e307) / 2.0, 1.0 / 1e-300]])


class TestNotUtf8:
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("line", [1, 2, 4])
    def test_names_the_physical_line_and_byte(self, tmp_path, eol, line):
        lines = ["x1,y1,y2", "1.5,0.25,0.75", "", '"2.5",0.5,0.5']
        raw = [text.encode("utf-8") for text in lines]
        raw[line - 1] += b"\xe9"
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"\xef\xbb\xbf" + eol.encode().join(raw) + eol.encode())
        with pytest.raises(ValidationError,
                           match=rf"latin1\.csv: line {line}: not UTF-8 text \(byte 0xe9\)$"):
            load_csv(path, DatasetSchema(response_cols=("y1", "y2"), predictor_cols=("x1",)))
