"""Text format: grammar, error positions, round trips."""

import tracemalloc

import numpy as np
import pytest

from helpers import fixture_text
from pdakit import (PdaArray, SizeCapError, canonicalize, emit, parse,
                    verify_pda)
from pdakit.textio import PdaFormatError, load, parse_with_header, save


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

    def test_symbol_wrapping_int64_rejected(self):
        # 2**64 + 5 would read as 5 if digits were summed in int64
        with pytest.raises(PdaFormatError, match="at most") as err:
            parse("2 1 0 5\n1 18446744073709551621\n")
        assert err.value.column == 2

    def test_symbol_longer_than_int_converts(self):
        with pytest.raises(PdaFormatError, match="is not an integer"):
            parse("1 1 0 1\n" + "1" * 5000 + "\n")

    def test_short_and_long_row_with_right_total(self):
        with pytest.raises(PdaFormatError, match="row has 3 tokens") as err:
            parse("2 2 1 1\n* 1 1\n*\n")
        assert err.value.line == 2

    def test_largest_int32_symbol_parses(self):
        assert parse("1 1 0 1\n2147483647\n").to_rows() == [[2147483647]]

    def test_wrong_row_count(self):
        with pytest.raises(PdaFormatError, match="data rows"):
            parse("2 3 1 1\n* 1\n1 *\n")

    @pytest.mark.parametrize("text, line, column", [
        ("2 1 0 1\n+1 1\n", 2, 1),
        ("2 1 0 1\n1 1_0\n", 2, 2),
        ("1 1 0 1\n\u0663\n", 2, 1),
        ("+2 1 0 1\n1 1\n", 1, 1),
        ("2 0_1 0 1\n1 1\n", 1, 2),
        ("1 1 0 \u0661\n1\n", 1, 4),
    ])
    def test_only_ascii_decimal_digits(self, text, line, column):
        # int() takes a sign, underscores and any Unicode digit
        with pytest.raises(PdaFormatError, match="is not an integer") as err:
            parse_with_header(text)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("text, column", [
        ("1 1 1 -0\n*\n", 4),
        ("1 1 -00 1\n1\n", 3),
    ])
    def test_signed_zero_rejected(self, text, column):
        with pytest.raises(PdaFormatError, match="must not carry a sign") as err:
            parse_with_header(text)
        assert (err.value.line, err.value.column) == (1, column)

    def test_header_shares_newline_with_other_lines(self):
        # str.splitlines also breaks at "\r" and "\x0c"
        arr = parse("# c\r2 2 1 1\r* 1\n1 *\n")
        assert arr.to_rows() == [["*", 1], [1, "*"]]
        with pytest.raises(PdaFormatError) as err:
            parse("# c\r2 2 1 1\x0c* x\n1 *\n")
        assert (err.value.line, err.value.column) == (3, 2)

    def test_leading_zeros_valid(self):
        arr, header = parse_with_header("02 1 0 007\n007 0000000001\n")
        assert header == (2, 1, 0, 7) and arr.to_rows() == [[7, 1]]

    @pytest.mark.parametrize("header", ["100000 1000 0 1",
                                        "12345678901 6 0 1"])
    def test_header_above_cell_cap(self, header):
        with pytest.raises(SizeCapError, match="cap"):
            parse(header + "\n* 1\n")

    def test_header_count_too_long_to_print(self):
        # F*K = 10^6000 has more digits than Python writes out as text
        big = 10**3000
        with pytest.raises(SizeCapError, match=r"declares more than 10\^5999 "
                                               r"cells"):
            parse(f"{big} {big} 0 1\n* 1\n")

    def test_header_at_cell_cap_reads_body(self):
        with pytest.raises(PdaFormatError, match="expected 1 data rows"):
            parse("10000000 1 0 1\n")

    @pytest.mark.parametrize("f, k", [(70_000, 1), (1, 70_000), (300, 250)])
    def test_blocks_round_trip(self, f, k):
        grid = np.arange(f * k, dtype=np.int32).reshape(f, k) % 100_003
        arr = PdaArray(grid)
        text = emit(arr)
        assert parse(text) == arr
        # a bad token in the last block is still named by line and token
        lines = text.split("\n")
        lines[-2] = " ".join(lines[-2].split()[:-1] + ["1x"])
        with pytest.raises(PdaFormatError, match="'1x' is not") as err:
            parse("\n".join(lines))
        assert (err.value.line, err.value.column) == (f + 1, k)

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

    def test_save_load_round_trip(self, tmp_path):
        arr = parse(fixture_text("ext_special_q3_z2_m2.pda"))
        save(arr, tmp_path / "a.pda")
        assert load(tmp_path / "a.pda") == arr

    def test_trailing_newline_present(self):
        assert emit(PdaArray.from_rows([[1]])).endswith("\n")

    def test_sparse_huge_symbols(self):
        arr = PdaArray([[0, 2147483647], [2147483647, 0]])
        tracemalloc.start()
        try:
            text = emit(arr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text == "2 2 1 2147483647\n* 2147483647\n2147483647 *\n"
        assert peak < 1 << 20

    def test_all_star_rows(self):
        assert emit(PdaArray([[0, 0], [0, 0]])) == "2 2 2 0\n* *\n* *\n"
        arr = PdaArray([[0, 0, 0], [10, 0, 205]])
        assert emit(arr) == "3 2 1 205\n* * *\n10 * 205\n"

    def test_single_column(self):
        arr = PdaArray([[1], [0], [12]])
        assert emit(arr) == "1 3 1 12\n1\n*\n12\n"
        assert parse(emit(arr)) == arr
