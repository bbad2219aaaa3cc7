import math

import pytest

from cyclicavg.cli import format_scalar, main
from cyclicavg.fields import Surd
from cyclicavg.geometry import PlanePlacement, PolygonSpec
from cyclicavg.polygon import power_sum_brute

from fractions import Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_format_scalar():
    assert format_scalar(Fraction(3, 4)) == "3/4"
    assert format_scalar(Fraction(8, 4)) == "2"
    assert format_scalar(Surd(Fraction(1, 2), Fraction(3, 2), 5)) == "1/2 + 3/2*√5"
    assert format_scalar(980.0) == "980"
    assert format_scalar(0.1234567890123456) == "0.123456789012"


class TestEval:
    def test_polygon_sum(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--polygon", "4", "--R", "1",
                               "--L", "2", "--m", "3")
        assert code == 0
        assert out.strip() == "980"

    def test_exact_backend(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--polygon", "3", "--R", "1/2",
                               "--L", "1/3", "--m", "2", "--backend", "exact",
                               "--average")
        assert code == 0
        # (R^2+L^2)^2 + 2 R^2 L^2 at R=1/2, L=1/3
        expected = (Fraction(1, 4) + Fraction(1, 9)) ** 2 \
            + 2 * Fraction(1, 4) * Fraction(1, 9)
        assert out.strip() == format_scalar(expected)

    def test_solid(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--solid", "octahedron",
                               "--R", "1", "--L", "1", "--m", "2")
        assert code == 0
        assert float(out) == pytest.approx(32.0)

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--polygon", "4", "--R", "1",
                               "--L", "2", "--m", "9")
        assert code == 2
        assert "m=9" in err

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "eval", "--polygon", "4", "--solid", "cube",
                    "--R", "1", "--L", "1", "--m", "1")
        assert exc.value.code == 1


class TestOracle:
    def test_polygon(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--polygon", "4", "--R", "1",
                               "--L", "2", "--alpha", "0", "--m", "2")
        assert code == 0
        assert float(out) == pytest.approx(132.0)

    def test_degrees_flag(self, capsys):
        _, out_rad, _ = run_cli(capsys, "oracle", "--polygon", "5", "--R", "1",
                                "--L", "1", "--alpha", str(math.pi / 4), "--m", "5")
        _, out_deg, _ = run_cli(capsys, "oracle", "--polygon", "5", "--R", "1",
                                "--L", "1", "--alpha", "45", "--m", "5", "--degrees")
        assert float(out_rad) == pytest.approx(float(out_deg))

    def test_solid_exact(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--solid", "cube", "--c", "1",
                               "--x", "0", "--y", "0", "--z", "0", "--m", "3",
                               "--backend", "exact")
        assert code == 0
        assert out.strip() == "216"


class TestLocus:
    def test_circle(self, capsys):
        code, out, _ = run_cli(capsys, "locus", "--polygon", "4", "--R", "1",
                               "--m", "3", "--C", "980")
        assert code == 0
        assert out.startswith("circle L=2")

    def test_centroid(self, capsys):
        code, out, _ = run_cli(capsys, "locus", "--solid", "octahedron",
                               "--R", "1", "--m", "3", "--C", "6")
        assert code == 0
        assert out.strip() == "centroid"

    def test_empty_is_a_result_not_an_error(self, capsys):
        code, out, _ = run_cli(capsys, "locus", "--polygon", "3", "--R", "1",
                               "--m", "1", "--C", "2")
        assert code == 0
        assert out.strip() == "empty"



class TestFloatOverflow:
    @pytest.mark.parametrize("argv", [
        ("eval", "--polygon", "64", "--L", "1e200", "--m", "63"),
        ("eval", "--polygon", "64", "--L", "1e10", "--m", "63"),
        ("oracle", "--polygon", "64", "--L", "1e10", "--m", "63"),
        ("eval", "--solid", "icosahedron", "--L", "1e80", "--m", "5"),
    ])
    def test_overflow_is_a_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "overflows" in err

    def test_locus_bisection_still_reads_overflow_as_infinite(self, capsys):
        code, out, _ = run_cli(capsys, "locus", "--polygon", "8", "--R", "1",
                               "--m", "7", "--C", "1e300")
        assert code == 0
        assert out.startswith("circle L=")

class TestSolveRecover:
    def test_solve(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--polygon", "6", "--R", "1",
                               "--L", "1", "--d1sq", "0", "--backend", "exact")
        assert code == 0
        assert "0, 1, 3, 4, 3, 1" in out

    def test_recover_distances(self, capsys):
        code, out, _ = run_cli(capsys, "recover", "--polygon", "3",
                               "--dsq", "1,7,7", "--backend", "exact")
        assert code == 0
        assert "R^2 = 4, L^2 = 1" in out
        assert "R^2 = 1, L^2 = 4" in out

    def test_recover_averages(self, capsys):
        code, out, _ = run_cli(capsys, "recover", "--s2", "5", "--s4", "33",
                               "--backend", "exact")
        assert code == 0
        assert "R^2 = 4, L^2 = 1" in out

    def test_recover_averages_space(self, capsys):
        # forward data from a tetrahedron with R^2 = 3, L^2 = 1:
        # S2 = 4, S4 = 16 + (4/3)*3*1 = 20
        code, out, _ = run_cli(capsys, "recover", "--s2", "4", "--s4", "20",
                               "--space", "--backend", "exact")
        assert code == 0
        assert "R^2 = 3, L^2 = 1" in out


class TestPlot:
    def test_alpha_csv_constant_within_range(self, capsys):
        code, out, _ = run_cli(capsys, "plot", "powersum-vs-alpha", "--polygon",
                               "3", "--R", "1", "--L", "1", "--m", "2",
                               "--samples", "64")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,power_sum"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(values) == 64
        assert max(values) - min(values) < 1e-9 * max(values)

    def test_alpha_csv_varies_beyond_range(self, capsys):
        code, out, _ = run_cli(capsys, "plot", "powersum-vs-alpha", "--polygon",
                               "3", "--R", "1", "--L", "1", "--m", "3",
                               "--samples", "64")
        values = [float(line.split(",")[1])
                  for line in out.strip().split("\n")[1:]]
        assert max(values) - min(values) > 1e-3 * max(values)

    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "plot", "powersum-vs-alpha", "--polygon",
                               "5", "--R", "1.5", "--L", "0.7", "--m", "4",
                               "--samples", "16")
        spec = PolygonSpec(5, 1.5)
        for line in out.strip().split("\n")[1:]:
            alpha_text, value_text = line.split(",")
            recomputed = power_sum_brute(spec, 4,
                                         PlanePlacement(0.7, float(alpha_text)))
            assert abs(float(value_text) - recomputed) <= 1e-12 * recomputed

    def test_l_sweep_csv(self, capsys):
        code, out, _ = run_cli(capsys, "plot", "powersum-vs-L", "--polygon",
                               "4", "--R", "1", "--m", "2", "--samples", "32")
        lines = out.strip().split("\n")
        assert lines[0] == "L,power_sum"
        assert len(lines) == 33

    def test_locus_svg(self, capsys):
        code, out, _ = run_cli(capsys, "plot", "locus-circle", "--polygon", "4",
                               "--R", "1", "--m", "3", "--C", "980")
        assert code == 0
        assert out.startswith("<svg ")
        assert out.rstrip().endswith("</svg>")
        assert 'viewBox="0 0 1000 1000"' in out
        # locus radius 2 at extent 2.3 -> scaled radius 450/2.3*2
        assert f'r="{450.0 / 2.3 * 2:.2f}"' in out
        assert "locus: circle L=2" in out

    def test_kind_output_mismatch_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "plot", "locus-circle", "--polygon", "4", "--R", "1",
                    "--m", "3", "--C", "980", "--output", "csv")
        assert exc.value.code == 1


class TestReportsAndSweeps:
    def test_rational24(self, capsys):
        code, out, _ = run_cli(capsys, "rational24")
        assert code == 0
        assert "no rational-distance point exists" in out
        assert "degree: 8" in out

    def test_errata(self, capsys):
        code, out, _ = run_cli(capsys, "errata")
        assert code == 0
        assert out.count("corrected form verified") == 4

    def test_verify_rational_scope_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "--scope", "rational",
                                 "--seed", "7")
        code2, out2, _ = run_cli(capsys, "verify", "--scope", "rational",
                                 "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "0 failures" in out1

    def test_backend_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CYCLICAVG_BACKEND", "exact")
        code, out, _ = run_cli(capsys, "eval", "--polygon", "4", "--R", "1/2",
                               "--L", "0", "--m", "1")
        assert code == 0
        assert out.strip() == "1"  # 4 * (1/4 + 0)
