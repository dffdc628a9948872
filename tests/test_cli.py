"""Command-line behavior: outputs, presets, exit codes."""

import pytest

from helpers import FIXTURES, fixture_text
from pdakit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_special_header(self, capsys):
        code, out, err = run(capsys, "construct", "--family", "special",
                             "--q", "3", "--z", "2", "--m", "2")
        assert code == 0
        assert out.splitlines()[0] == "9 18 12 9"
        assert "(K,F,Z,S)=(9, 18, 12, 9)" in err
        assert "M/N=2/3" in err and "R=1/2" in err

    def test_mn_header(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "mn",
                           "--k", "4", "--t", "2")
        assert code == 0
        assert out.splitlines()[0] == "4 6 3 4"

    def test_domain_violation_exit_2(self, capsys):
        code, _, err = run(capsys, "construct", "--family", "general",
                           "--q", "3", "--z", "2", "--m", "2", "--t", "2")
        assert code == 2
        assert "t must" in err

    def test_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "construct", "--family", "special",
                           "--q", "3", "--z", "2", "--m", "2",
                           "--max-cells", "10")
        assert code == 3
        assert "cap" in err

    def test_output_file_and_determinism(self, capsys, tmp_path):
        target = tmp_path / "out.pda"
        for _ in range(2):
            code, _, _ = run(capsys, "construct", "--family", "ext-general",
                             "--q", "3", "--z", "2", "--m", "2", "--t", "1",
                             "--out", str(target))
            assert code == 0
        first = target.read_text()
        assert first.splitlines()[0] == "12 9 6 9"

    def test_construct_verify_round_trip(self, capsys, tmp_path):
        target = tmp_path / "x.pda"
        run(capsys, "construct", "--family", "general", "--q", "4", "--z", "3",
            "--m", "3", "--t", "2", "--out", str(target))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == 0 and out.startswith("valid")

    def test_construct_verify_round_trip_full_sweep(self, capsys, tmp_path):
        from pdakit import standard_sweep
        target = str(tmp_path / "sweep.pda")
        for family, p in standard_sweep():
            argv = ["construct", "--family", family.value, "--q", str(p.q),
                    "--z", str(p.z), "--m", str(p.m), "--t", str(p.t),
                    "--out", target]
            assert main(argv) == 0, (family, p)
            assert main(["verify", "--out", "-", target]) == 0, (family, p)
            capsys.readouterr()


class TestVerify:
    def test_valid_file(self, capsys):
        code, out, _ = run(capsys, "verify", str(FIXTURES / "mn_k4_t2.pda"))
        assert code == 0
        assert "(4, 6, 3, 4)" in out

    def test_corrupted_star_reports_c1_c2(self, capsys, tmp_path):
        text = fixture_text("mn_k4_t2.pda").replace("* * 1 2", "5 * 1 2", 1)
        bad = tmp_path / "bad.pda"
        bad.write_text(text)
        code, out, _ = run(capsys, "verify", str(bad))
        assert code == 1
        assert "C1" in out and "C2" in out

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "junk.pda"
        bad.write_text("not a header\n")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2 and "parse error" in err

    def test_oversized_symbol_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "big.pda"
        bad.write_text("2 2 1 1\n* 3000000000\n1 *\n")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert "parse error: line 2, token 2" in err

    def test_empty_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "empty.pda"
        bad.write_text("")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "absent.pda"))
        assert code == 2 and "error" in err


class TestSimulate:
    def test_known_demand_trace(self, capsys):
        code, out, _ = run(capsys, "simulate", str(FIXTURES / "mn_k4_t2.pda"),
                           "--files", "6", "--demand", "1,2,3,4")
        assert code == 0
        assert "s=1 terms=(1,4);(2,2);(3,1)" in out
        assert "rate=2/3" in out
        assert out.count(": ok") == 4
        assert "decode=ok" in out

    def test_random_demands(self, capsys):
        code, out, _ = run(capsys, "simulate", str(FIXTURES / "mn_k4_t2.pda"),
                           "--random-demands", "5", "--seed", "3")
        assert code == 0
        assert out.count("decode=ok") == 5

    def test_demand_out_of_range_exit_2(self, capsys):
        code, _, err = run(capsys, "simulate", str(FIXTURES / "mn_k4_t2.pda"),
                           "--files", "6", "--demand", "1,2,3,7")
        assert code == 2

    def test_demand_wrong_length_exit_2(self, capsys):
        code, _, _ = run(capsys, "simulate", str(FIXTURES / "mn_k4_t2.pda"),
                         "--demand", "1,2")
        assert code == 2

    def test_corrupt_array_exit_1(self, capsys, tmp_path):
        text = fixture_text("mn_k4_t2.pda").replace("1 * * 4", "2 * * 4", 1)
        bad = tmp_path / "bad.pda"
        bad.write_text(text)
        code, out, _ = run(capsys, "simulate", str(bad), "--files", "6",
                           "--demand", "1,2,3,4")
        assert code == 1
        assert "decode=FAIL" in out

    def test_deterministic_output(self, capsys):
        args = ("simulate", str(FIXTURES / "special_q3_z2_m2.pda"),
                "--random-demands", "3", "--seed", "11")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestCompare:
    def test_preset_general_table(self, capsys):
        code, out, _ = run(capsys, "compare", "--table-iv")
        assert code == 0
        assert "0.0137174211248285" in out
        assert "0.00462962962962963" in out
        assert len(out.splitlines()) == 2 + 8  # header rows + z=11..18

    def test_preset_t1_table(self, capsys):
        code, out, _ = run(capsys, "compare", "--table-v")
        assert code == 0
        assert "0.0246913580246914" in out and "0.45" in out

    def test_explicit_sweep_matches_preset(self, capsys):
        _, preset, _ = run(capsys, "compare", "--table-v")
        _, manual, _ = run(capsys, "compare", "--baseline", "yctc",
                           "--q", "20", "--lambda", "0.5")
        assert preset == manual

    def test_single_z_csv(self, capsys):
        code, out, _ = run(capsys, "compare", "--baseline", "szg", "--q", "20",
                           "--z", "14", "--t", "3", "--lambda", "0.1",
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "z,r_bound,f_ratio"
        assert lines[1].startswith("14,0.0137174211248285,")

    def test_domain_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "compare", "--baseline", "szg", "--q", "20",
                         "--z", "25", "--t", "3", "--lambda", "0.1")
        assert code == 2

    def test_missing_args_exit_2(self, capsys):
        code, _, _ = run(capsys, "compare", "--baseline", "szg")
        assert code == 2


class TestEnumerate:
    def test_preset_rows(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--table-iii")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("K=405")
        assert "13 scheme(s)" in lines[0]
        assert len(lines) == 2 + 13
        assert "147.9072" in out and "4.9053" in out

    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "405",
                           "--ratio", "2/3", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "family,q,z,m,t,R_num,R_den,lnF"
        assert lines[1].startswith("special,3,2,134,1,1,2,")

    def test_include_dominated_superset(self, capsys):
        _, small, _ = run(capsys, "enumerate", "--k", "405", "--ratio", "2/3",
                          "--format", "csv")
        _, full, _ = run(capsys, "enumerate", "--k", "405", "--ratio", "2/3",
                         "--format", "csv", "--include-dominated")
        assert set(small.splitlines()) <= set(full.splitlines())
        assert len(full.splitlines()) > len(small.splitlines())

    def test_ratio_must_be_fraction(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["enumerate", "--k", "4", "--ratio", "0.5"])
        assert exit_info.value.code == 2

    def test_empty_result_ok(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "3", "--ratio", "1/2")
        assert code == 0
        assert "0 scheme(s)" in out
