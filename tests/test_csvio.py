"""CSV ingestion: header handling, the complex cell grammar, the error
positions, and the real-mode fast path against the per-cell reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramdist import EmptyFile, ParseError, RaggedRows
from gramdist.csvio import _parse_cells, _parse_real_fast, parse_csv


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestBasics:
    def test_one_row_two_cols(self, tmp_path):
        t = parse_csv(write(tmp_path, "x,y\n1,2\n"))
        assert t.header == ("x", "y")
        assert t.rows == ((1.0, 2.0),)
        np.testing.assert_array_equal(t.matrix(), [[1.0, 2.0]])

    def test_complex_cell(self, tmp_path):
        t = parse_csv(write(tmp_path, "a\n1+2i\n"), mode="complex")
        assert t.rows == ((1 + 2j,),)
        assert t.matrix().dtype == np.complex128

    def test_ragged_row_position(self, tmp_path):
        with pytest.raises(RaggedRows) as err:
            parse_csv(write(tmp_path, "x\n1\n1,2\n"))
        assert err.value.line == 3

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFile):
            parse_csv(write(tmp_path, ""))

    def test_header_only_gives_no_rows(self, tmp_path):
        t = parse_csv(write(tmp_path, "x,y\n"))
        assert t.rows == ()

    def test_column_lookup(self, tmp_path):
        t = parse_csv(write(tmp_path, "x,y\n1,2\n3,4\n"))
        np.testing.assert_array_equal(t.column("y"), [2.0, 4.0])
        with pytest.raises(ValueError):
            t.column("z")

    def test_parse_error_position(self, tmp_path):
        with pytest.raises(ParseError) as err:
            parse_csv(write(tmp_path, "x,y\n1,zap\n"))
        assert err.value.line == 2 and err.value.column == 2

    @pytest.mark.parametrize("mode, body", [("real", "1,2\n3.5,-4\n"), ("complex", "1,2i\n3-1i,-4\n")])
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, mode, body):
        plain = parse_csv(write(tmp_path, "y,x\n" + body, "plain.csv"), mode)
        marked = parse_csv(write(tmp_path, "\ufeffy,x\n" + body, "bom.csv"), mode)
        assert marked.header == plain.header == ("y", "x")
        assert marked.data.dtype == plain.data.dtype
        np.testing.assert_array_equal(marked.data, plain.data)


class TestRealCells:
    @pytest.mark.parametrize("cell,value", [
        ("1", 1.0),
        ("-2.5", -2.5),
        ("+.5", 0.5),
        ("3.", 3.0),
        ("1e3", 1000.0),
        ("-1.25E-2", -0.0125),
    ])
    def test_accepted(self, tmp_path, cell, value):
        t = parse_csv(write(tmp_path, f"v\n{cell}\n"))
        assert t.rows[0][0] == value

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1+2i", "1_0", "0x10", "1,5", "", "1e999"])
    def test_rejected(self, tmp_path, cell):
        with pytest.raises((ParseError, RaggedRows)):
            parse_csv(write(tmp_path, f"v\n{cell}\n"))


class TestComplexCells:
    @pytest.mark.parametrize("cell,value", [
        ("2", 2 + 0j),
        ("-3i", -3j),
        ("1+2i", 1 + 2j),
        ("1-2i", 1 - 2j),
        ("-1.5e1+0.25i", -15 + 0.25j),
        ("+2i", 2j),
        ("0.5i", 0.5j),
    ])
    def test_accepted(self, tmp_path, cell, value):
        t = parse_csv(write(tmp_path, f"v\n{cell}\n"), mode="complex")
        assert t.rows[0][0] == value

    @pytest.mark.parametrize("cell", ["i", "-i", "1 + 2i", "1+2j", "2i+1", "1+i2", "nan", "1+-2i"])
    def test_rejected(self, tmp_path, cell):
        with pytest.raises(ParseError):
            parse_csv(write(tmp_path, f"v\n{cell}\n"), mode="complex")


def test_unknown_mode(tmp_path):
    with pytest.raises(ValueError):
        parse_csv(write(tmp_path, "x\n1\n"), mode="octonion")


def reference(path):
    """The per-cell parse of a real-mode file, bypassing the fast path."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return _parse_cells(lines, len(lines[0].split(",")), "real")


def outcome(parse, path):
    """Array bytes and shape, or the exception type and position."""
    try:
        data = parse(path)
    except ParseError as exc:
        return ("ParseError", exc.line, exc.column)
    except RaggedRows as exc:
        return ("RaggedRows", exc.line, exc.expected, exc.got)
    return ("ok", data.dtype.str, data.shape, data.tobytes())


# Pieces of cells: the grammar's own characters, characters that look like
# them to other parsers (comment and quote marks, underscores, the suffix of
# a complex literal), ASCII and Unicode whitespace, line breaks that
# splitlines() honours, non-ASCII digits, and literals that float() takes
# but the grammar or the finiteness rule refuses.
ATOMS = (
    list("0123456789.eE+-#_i, \t\"'")
    + ["1", "-2.5", "3e4", ".5", "7.", "+8", "nan", "inf", "-inf", "infinity",
       "1e999", "1e-400", "0x10", "\u0661", "\uff11", "\xa0", "\u3000", "\x1f",
       "\x0c", "\r", "\n", "\x00"]
)
cell = st.lists(st.sampled_from(ATOMS), max_size=4).map("".join)
plain = st.sampled_from(["1", "-2.5", "3e4", ".5", "7.", "+8", " 9 ", "1e-400"])


@st.composite
def real_csv(draw):
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(
        st.lists(plain, min_size=width, max_size=width)
        | st.lists(st.one_of(plain, cell), min_size=width, max_size=width)
        | st.lists(cell, max_size=width + 1),
        max_size=4,
    ))
    end = draw(st.sampled_from(["", "\n", "\r\n"]))
    header = ",".join(f"c{j}" for j in range(width))
    return "\n".join([header] + [",".join(r) for r in rows]) + end


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fast") / "t.csv"


class TestRealFastPath:
    @settings(max_examples=400)
    @given(real_csv())
    def test_matches_reference(self, csv_path, text):
        path = csv_path
        path.write_text(text, encoding="utf-8", newline="")
        want = outcome(reference, path)
        assert outcome(lambda p: parse_csv(p).data, path) == want
        lines = text.splitlines()
        fast = _parse_real_fast(lines, len(lines[0].split(",")))
        if fast is not None:
            assert ("ok", fast.dtype.str, fast.shape, fast.tobytes()) == want

    def test_plain_file_takes_fast_path(self, tmp_path):
        lines = ["x,y", "1,-2.5", " 3e4 ,.5"]
        fast = _parse_real_fast(lines, 2)
        assert fast is not None
        np.testing.assert_array_equal(fast, [[1.0, -2.5], [3e4, 0.5]])
        t = parse_csv(write(tmp_path, "\n".join(lines) + "\n"))
        assert t.matrix().tobytes() == fast.tobytes()
        assert not t.matrix().flags.writeable

    @pytest.mark.parametrize("cell", ["nan", "1e999"])
    def test_non_finite_position(self, tmp_path, cell):
        with pytest.raises(ParseError) as err:
            parse_csv(write(tmp_path, f"x,y\n1,2\n3,4\n5,{cell}\n6,7\n"))
        assert (err.value.line, err.value.column) == (4, 2)

    def test_blank_line_is_ragged(self, tmp_path):
        with pytest.raises(RaggedRows) as err:
            parse_csv(write(tmp_path, "x,y\n1,2\n\n3,4\n"))
        assert (err.value.line, err.value.expected, err.value.got) == (3, 2, 1)

    def test_hash_is_not_a_comment(self, tmp_path):
        # In the last column, a comment marker would leave a full, valid row.
        with pytest.raises(ParseError) as err:
            parse_csv(write(tmp_path, "x,y\n1,2\n3,1#2\n"))
        assert (err.value.line, err.value.column) == (3, 2)

    def test_grammar_only_digits_parse_as_reference(self, tmp_path):
        # U+0661 ARABIC-INDIC DIGIT ONE: \d and float() take it, loadtxt does not.
        path = write(tmp_path, "x,y\n\u0661,2\n3,\u0661\u0662\n")
        assert _parse_real_fast(path.read_text(encoding="utf-8").splitlines(), 2) is None
        got = parse_csv(path).matrix()
        np.testing.assert_array_equal(got, [[1.0, 2.0], [3.0, 12.0]])
        assert got.tobytes() == reference(path).tobytes()
