import math
import random
import re
import sys

import pytest

from cyclicavg.cli import format_scalar, main
from cyclicavg.fields import Surd
from cyclicavg.geometry import PlanePlacement, PolygonSpec, SolidKind, SolidSpec
from cyclicavg.polygon import locus_classify, power_sum_brute, power_sum_closed

from fractions import Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_format_scalar():
    assert format_scalar(Fraction(3, 4)) == "3/4"
    assert format_scalar(Fraction(8, 4)) == "2"
    assert format_scalar(Surd(Fraction(1, 2), Fraction(3, 2))) == "1/2 + 3/2*√5"
    assert format_scalar(980.0) == "980"
    assert format_scalar(0.1234567890123456) == "0.1234567890123456"


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                    reason="this Python prints integers of any length")
@pytest.mark.parametrize("argv", [
    ("eval", "--polygon", "3", "--R", "1", "--m", "1", "--L", "1e-2200"),
    ("oracle", "--polygon", "12", "--R", "64", "--m", "7", "--L", "1e-320"),
])
def test_exact_result_past_the_digit_limit_is_a_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--backend", "exact")
    assert (code, out) == (2, "")
    assert f"more than {sys.get_int_max_str_digits()} digits" in err
    assert "use the float backend" in err


@pytest.mark.parametrize("argv, message", [
    (("eval", "--solid", "cube", "--R", "1", "--c", "2", "--L", "1", "--m", "1"),
     "argument --c: not allowed with argument --R"),
    (("eval", "--polygon", "4", "--c", "2", "--L", "1", "--m", "1"),
     "--c cannot be used with --polygon"),
    (("locus", "--polygon", "4", "--R", "1", "--c", "2", "--m", "1", "--C", "9"),
     "argument --c: not allowed with argument --R"),
    (("oracle", "--polygon", "4", "--R", "1", "--L", "1", "--m", "1", "--x", "3"),
     "--x cannot be used with --polygon"),
    (("oracle", "--solid", "cube", "--x", "1", "--y", "0", "--z", "0", "--m", "1",
      "--L", "5", "--alpha", "3"), "--L, --alpha cannot be used with --solid"),
    (("oracle", "--solid", "cube", "--x", "1", "--y", "0", "--z", "0", "--m", "1",
      "--degrees"), "--degrees cannot be used with --solid"),
    (("recover", "--polygon", "3", "--dsq", "1,7,7", "--s2", "5", "--s4", "33"),
     "--s2, --s4 cannot be used with --dsq"),
    (("recover", "--polygon", "3", "--dsq", "1,7,7", "--space"),
     "--space cannot be used with --dsq"),
    (("recover", "--polygon", "3", "--dsq=", "--s2", "5", "--s4", "33"),
     "--s2, --s4 cannot be used with --dsq"),
    (("recover", "--polygon", "3", "--s2", "5", "--s4", "33"),
     "--polygon cannot be used with --s2/--s4"),
    (("recover", "--polygon", "3", "--s2", "5", "--s4", "33", "--space"),
     "--polygon cannot be used with --s2/--s4"),
])
def test_contradictory_options_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: cyclicavg {argv[0]}")
    assert message in err


@pytest.mark.parametrize("command", ["eval", "oracle", "locus"])
def test_help_tells_the_solid_scale_from_the_sum(capsys, command):
    with pytest.raises(SystemExit):
        run_cli(capsys, command, "--help")
    out = capsys.readouterr().out
    assert "[--R R | --c SCALE]" in out
    assert "--c C" not in out


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

    @pytest.mark.parametrize("figure", [("--polygon", "4", "--R", "1"),
                                        ("--solid", "cube", "--c", "1")])
    def test_negative_L_is_refused(self, capsys, figure):
        for backend in ("float", "exact"):
            for average in ((), ("--average",)):
                code, out, err = run_cli(capsys, "eval", *figure, "--L=-2", "--m", "3",
                                         "--backend", backend, *average)
                assert (code, out) == (2, "")
                assert "L must be >= 0" in err

    def test_negative_solid_circumradius_is_named(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--solid", "cube", "--R=-1",
                               "--L", "1", "--m", "3")
        assert code == 2
        assert "circumradius must be positive" in err

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "eval", "--polygon", "4", "--solid", "cube",
                    "--R", "1", "--L", "1", "--m", "1")
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv, message", [
        (("locus", "--solid", "cube", "--polygon", "0", "--R", "1", "--m", "1", "--C", "3"),
         "exactly one of --polygon/--solid"),
        (("eval", "--polygon", "0", "--L", "1", "--m", "1"), "--polygon must be in 3..64"),
    ])
    def test_polygon_zero_is_given_not_absent(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, *argv)
        assert exc.value.code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("figure", [("--polygon", "4", "--R", ""),
                                        ("--solid", "cube", "--R", ""),
                                        ("--solid", "cube", "--c", "")])
    def test_empty_scale_is_given_not_absent(self, capsys, figure):
        code, out, err = run_cli(capsys, "eval", *figure, "--L", "1", "--m", "1")
        assert (code, out) == (2, "")
        assert "cannot parse number ''" in err

    def test_solid_help_names_every_kind(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "eval", "--help")
        out = capsys.readouterr().out
        assert "tetrahedron|octahedron|cube|icosahedron|dodecahedron" in out


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

    def test_exact_polygon_matches_eval_for_every_n(self, capsys):
        argv = ("--polygon", "5", "--R", "1", "--L", "1/2", "--m", "3", "--backend", "exact")
        code, out, _ = run_cli(capsys, "oracle", *argv)
        assert code == 0
        assert out == run_cli(capsys, "eval", *argv)[1] == "1225/64\n"

    def test_exact_polygon_refuses_negative_L(self, capsys):
        argv = ("oracle", "--polygon", "3", "--R", "1", "--L=-1/2", "--m", "3")
        for backend in ("float", "exact"):
            code, out, err = run_cli(capsys, *argv, "--backend", backend)
            assert (code, out) == (2, "")
            assert "L must be >= 0" in err

    def test_solid_exact(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--solid", "cube", "--c", "1",
                               "--x", "0", "--y", "0", "--z", "0", "--m", "3",
                               "--backend", "exact")
        assert code == 0
        assert out.strip() == "216"

    @pytest.mark.parametrize("solid, m, expected", [
        ("icosahedron", "6", "259055061916897708947181/44286750000000000"
                             " + 14020669678819688353/5467500000000*√5"),
        ("cube", "4", "177663208160281/5125781250"),
    ])
    def test_solid_exact_text(self, capsys, solid, m, expected):
        code, out, _ = run_cli(capsys, "oracle", "--backend", "exact", "--solid", solid,
                               "--c", "3/2", "--x", "1/3", "--y=-2/5", "--z", "1/2",
                               "--m", m)
        assert (code, out) == (0, expected + "\n")


class TestLocus:
    def test_circle(self, capsys):
        code, out, _ = run_cli(capsys, "locus", "--polygon", "4", "--R", "1",
                               "--m", "3", "--C", "980")
        assert code == 0
        assert out == "circle L=1.9999999999999998\n"

    def test_printed_radius_reads_back(self, capsys):
        rng = random.Random(33)
        for _ in range(60):
            solid = rng.random() < 0.3
            kind = rng.choice(list(SolidKind))
            spec = SolidSpec(kind, rng.uniform(0.2, 4)) if solid else PolygonSpec(
                rng.randint(3, 12), rng.uniform(0.2, 4))
            m = rng.randint(1, spec.t)
            C = power_sum_closed(spec, m, rng.uniform(0.01, 5) * math.sqrt(spec.R_sq))
            figure = (("--solid", kind.value, "--c", repr(spec.c)) if solid
                      else ("--polygon", str(spec.n), "--R", repr(spec.R)))
            code, out, _ = run_cli(capsys, "locus", *figure, "--m", str(m), "--C", repr(C))
            locus = locus_classify(spec, m, C)
            assert code == 0
            assert out == f"{locus.kind} L={format_scalar(locus.L)}\n"
            assert float(out.split("L=")[1]) == locus.L

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

    def test_exact_solid_takes_the_coordinate_scale(self, capsys):
        code, out, _ = run_cli(capsys, "locus", "--solid", "cube", "--c", "1",
                               "--m", "2", "--C", "520", "--backend", "exact")
        assert code == 0
        assert out.strip() == "sphere L=2"



class TestFloatOverflow:
    @pytest.mark.parametrize("argv", [
        ("eval", "--polygon", "64", "--L", "1e200", "--m", "63"),
        ("eval", "--polygon", "64", "--L", "1e10", "--m", "63"),
        ("oracle", "--polygon", "64", "--L", "1e10", "--m", "63"),
        ("eval", "--solid", "icosahedron", "--L", "1e80", "--m", "5"),
        # the centre value n R^(2m): R^(2m) itself overflows
        ("locus", "--polygon", "8", "--R", "1e30", "--m", "7", "--C", "1"),
        # only the factor n overflows; an inf centre must not read as "centroid"
        ("locus", "--polygon", "8", "--R", "1e22", "--m", "7", "--C", "1"),
        # a number too large for a float is refused where it is parsed
        ("eval", "--polygon", "4", "--R", "1e400", "--L", "1", "--m", "2"),
        ("oracle", "--polygon", "4", "--R", "1", "--L", "1e400", "--m", "2"),
        ("locus", "--polygon", "4", "--R", "1", "--m", "2", "--C", "1e400"),
        ("recover", "--s2", "1e400", "--s4", "1"),
        ("solve", "--polygon", "3", "--R", "1", "--L", "1", "--d1sq", "1e400"),
        ("oracle", "--solid", "cube", "--x", "1", "--y", "1", "--z", "1e400", "--m", "2"),
        ("eval", "--solid", "cube", "--R", "1e400", "--L", "1", "--m", "2"),
        # an exact constant is decided exactly, but its radius is a float
        ("locus", "--backend", "exact", "--polygon", "4", "--R", "1", "--m", "2",
         "--C", "1" + "0" * 400),
    ])
    def test_overflow_is_a_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "overflows" in err

    def test_exact_backend_overflow_gives_no_exact_backend_advice(self, capsys):
        code, out, err = run_cli(capsys, "locus", "--backend", "exact", "--polygon", "4",
                                 "--R", "1", "--m", "2", "--C", "1" + "0" * 400)
        assert (code, out) == (2, "")
        assert "the locus radius is a float on every backend" in err
        assert "exact backend" not in err

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

    @pytest.mark.parametrize("R, L", [("-1", "1"), ("0", "1"), ("1", "-1")])
    def test_solve_refuses_nonpositive_R_and_negative_L(self, capsys, R, L):
        code, out, err = run_cli(capsys, "solve", "--polygon", "3", f"--R={R}",
                                 f"--L={L}", "--d1sq", "1")
        assert (code, out) == (2, "")
        assert "need R > 0 and L >= 0" in err

    @pytest.mark.parametrize("argv", [
        ("solve", "--polygon", "3", "--R", "1e200", "--L", "1", "--d1sq", "1"),
        ("solve", "--polygon", "4", "--R", "1", "--L", "1", "--d1sq", "1e300"),
        ("recover", "--polygon", "3", "--dsq", "1e300,1e300,1e300"),
        ("recover", "--polygon", "6", "--dsq", "1,1,1,1,1,1e200")])
    def test_overflow_is_refused_not_nan(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "overflows" in err

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

    def test_printed_on_circle_data_reads_back(self, capsys):
        # at L = R the recovery discriminant is 0, so the printed distances
        # and averages must read back as the doubles that were computed
        rng = random.Random(5)
        for _ in range(30):
            n = rng.choice(("3", "4", "6"))
            R = rng.uniform(0.5, 3.0)
            d1sq = 2 * R * R * (1 - math.cos(rng.uniform(0.0, 2 * math.pi)))
            figure = ("--polygon", n, "--R", repr(R), "--L", repr(R))
            code, out, _ = run_cli(capsys, "solve", *figure, "--d1sq", repr(d1sq))
            assert code == 0
            dsq = out.splitlines()[0].split(": ")[1].replace(" ", "")
            s2, s4 = (run_cli(capsys, "eval", *figure, "--m", m, "--average")[1].strip()
                      for m in ("1", "2"))
            for data in (("--polygon", n, "--dsq", dsq), ("--s2", s2, "--s4", s4)):
                code, out, err = run_cli(capsys, "recover", *data)
                assert code == 0, err
                r2, l2 = map(float, re.search(r"R\^2 = (\S+), L\^2 = (\S+)\n", out).groups())
                assert r2 == pytest.approx(R * R, rel=1e-6)
                assert l2 == pytest.approx(R * R, rel=1e-6)

    def test_recover_centre_data_gives_zero_square(self, capsys):
        # the R = 0.3 hexagon measured at its centre: the float root rounds below 0
        code, out, _ = run_cli(capsys, "recover", "--s2", "0.09000000000000001",
                               "--s4", "0.0081")
        assert code == 0
        assert "plus : R^2 = 0.09000000000000002, L^2 = 0\n" in out

    @pytest.mark.parametrize("backend", ["float", "exact"])
    @pytest.mark.parametrize("space", [(), ("--space",)])
    def test_recover_refuses_s4_below_s2_squared(self, capsys, backend, space):
        code, out, err = run_cli(capsys, "recover", "--s2", "1", "--s4=-1",
                                 "--backend", backend, *space)
        assert (code, out) == (2, "")
        assert "S4 < S2^2" in err

    @pytest.mark.parametrize("averages", [("1e200", "1e300"), ("1e154", "1.4e308")])
    @pytest.mark.parametrize("space", [(), ("--space",)])
    def test_recover_refuses_float_overflow(self, capsys, averages, space):
        code, out, err = run_cli(capsys, "recover", "--s2", averages[0],
                                 "--s4", averages[1], *space)
        assert (code, out) == (2, "")
        assert "overflows" in err


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

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_is_usage_error(self, capsys, samples):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "plot", "powersum-vs-L", "--polygon", "4", "--R", "1",
                    "--m", "2", "--samples", samples)
        assert exc.value.code == 1

    def test_handler_usage_error_prints_the_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "plot", "powersum-vs-L", "--polygon", "65", "--R", "1",
                    "--m", "3")
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: cyclicavg plot")
        assert "--polygon must be in 3..64" in err


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

    @pytest.mark.parametrize("argv", [
        ("verify",), ("rational24",), ("errata",),
        ("plot", "powersum-vs-L", "--polygon", "4", "--R", "1", "--m", "2")])
    def test_backend_is_refused_where_nothing_reads_it(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, *argv, "--backend", "exact")
        assert exc.value.code == 1
        assert "unrecognized arguments: --backend exact" in capsys.readouterr().err

    def test_verify_rational_scope_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "--scope", "rational",
                                 "--seed", "7")
        code2, out2, _ = run_cli(capsys, "verify", "--scope", "rational",
                                 "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "0 failures" in out1
