"""Text format: grammar, error positions, round trips."""

import pytest

from helpers import fixture_text
from pdakit import PdaArray, canonicalize, emit, parse, verify_pda
from pdakit.textio import PdaFormatError, parse_with_header


class TestParse:
    def test_fixture_round_trip(self):
        text = fixture_text("mn_k4_t2.pda")
        arr, header = parse_with_header(text)
        assert header == (4, 6, 3, 4)
        assert arr.f == 6 and arr.k == 4

    def test_single_cell_file(self):
        arr = parse("1 1 0 1\n1\n")
        assert arr.to_rows() == [[1]]

    def test_comments_and_blank_lines_skipped(self):
        text = "# heading\n\n2 2 1 1\n# mid\n* 1\n\n1 *\n"
        assert parse(text).to_rows() == [["*", 1], [1, "*"]]

    def test_row_with_wrong_token_count(self):
        text = "4 6 3 4\n" + "\n".join(["* * 1 2"] * 5 + ["* 1 2"]) + "\n"
        with pytest.raises(PdaFormatError) as err:
            parse(text)
        assert err.value.line == 7

    def test_missing_trailing_newline(self):
        with pytest.raises(PdaFormatError, match="trailing newline"):
            parse("1 1 0 1\n1")

    def test_empty_file(self):
        with pytest.raises(PdaFormatError, match="empty"):
            parse("")

    def test_header_must_have_four_fields(self):
        with pytest.raises(PdaFormatError, match="header"):
            parse("2 2 1\n* 1\n1 *\n")

    def test_non_integer_token_positioned(self):
        with pytest.raises(PdaFormatError) as err:
            parse("1 2 1 1\nx\n1\n")
        assert err.value.line == 2 and err.value.column == 1

    def test_zero_symbol_rejected(self):
        with pytest.raises(PdaFormatError, match="at least 1"):
            parse("1 1 0 1\n0\n")

    def test_negative_symbol_rejected(self):
        with pytest.raises(PdaFormatError, match="at least 1"):
            parse("2 1 0 2\n1 -3\n")

    def test_symbol_beyond_int32_rejected(self):
        with pytest.raises(PdaFormatError, match="at most 2147483647") as err:
            parse("2 2 1 1\n* 3000000000\n1 *\n")
        assert err.value.line == 2 and err.value.column == 2

    def test_largest_int32_symbol_parses(self):
        assert parse("1 1 0 1\n2147483647\n").to_rows() == [[2147483647]]

    def test_wrong_row_count(self):
        with pytest.raises(PdaFormatError, match="data rows"):
            parse("2 3 1 1\n* 1\n1 *\n")

    def test_symbol_above_declared_s_parses(self):
        # range/gap checking belongs to the verifier, not the parser
        arr, header = parse_with_header("2 1 0 1\n1 7\n")
        assert arr.to_rows() == [[1, 7]]
        report = verify_pda(arr, declared_s=header.s)
        assert any(v.condition == "C2" for v in report.violations)


class TestEmit:
    def test_parse_emit_identity(self):
        for name in ("mn_k4_t2.pda", "special_q3_z2_m2.pda"):
            arr = parse(fixture_text(name))
            assert parse(emit(arr)) == arr

    def test_emitted_text_stable_after_canonicalize(self):
        arr = canonicalize(parse(fixture_text("general_q3_z2_m2_t1.pda")))
        text = emit(arr)
        assert emit(parse(text)) == text

    def test_header_counts(self):
        arr = PdaArray.from_rows([["*", 1], [1, "*"]])
        assert emit(arr).splitlines()[0] == "2 2 1 1"

    def test_trailing_newline_present(self):
        assert emit(PdaArray.from_rows([[1]])).endswith("\n")
