"""Command-line front end.

Exit codes: 0 success, 1 usage errors, 2 domain errors (an empty locus is a
result, not an error).  The default scalar backend is float; `--backend
exact`, taken by eval, oracle, locus, solve and recover, switches to exact
rationals, printed as reduced fractions (and "p + q*sqrt(5)" in the golden
ratio field).
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .errors import DomainError, OutOfRangeError
from .fields import Scalar, Surd
from .geometry import (
    PlanePlacement,
    PolygonSpec,
    SolidKind,
    SolidSpec,
    SpacePlacement,
    _TRACE,
)
from .polygon import (
    cyclic_average,
    locus_classify,
    power_sum_brute,
    power_sum_brute_exact,
    power_sum_closed,
    recover_r2_l2,
)
from .ratdist import rational24_report
from .relations import recover_spec_from_distances, solve_distances
from .solids import recover_r2_l2_solid, solid_power_sum_brute
from . import errata as errata_mod
from . import plotting
from .verify import SCOPES, run_verify

MAX_CLI_VERTICES = 64


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures on exit status 1 instead of 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_number(text: str, exact: bool) -> Scalar:
    try:
        value = Fraction(text)
        return value if exact else float(value)
    except (ValueError, ZeroDivisionError):
        raise OutOfRangeError(f"cannot parse number {text!r}")
    except OverflowError:
        raise OutOfRangeError(f"number {text!r} overflows a float; "
                              "use the exact backend")


def format_scalar(x: Scalar) -> str:
    if isinstance(x, float):  # the shortest decimal that reads back as x
        text = repr(x)
        return text[:-2] if text.endswith(".0") else text
    if isinstance(x, Surd) and x.is_rational:
        x = x.a
    try:  # Fraction and int print as "p/q" and "p"
        return f"{x.a} + {x.b}*√5" if isinstance(x, Surd) else str(x)
    except ValueError:  # an integer past the interpreter's int-to-str digit limit
        raise OutOfRangeError(
            f"the exact result has an integer of more than {sys.get_int_max_str_digits()} "
            "digits, too long to print; use the float backend")


def build_parser() -> _Parser:
    parser = _Parser(prog="cyclicavg",
                     description="Distance power sums over regular polygons "
                                 "and Platonic solids.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--backend", choices=("exact", "float"), default="float",
                        help="scalar backend (default float)")
    figure = argparse.ArgumentParser(add_help=False)
    figure.add_argument("--polygon", type=int, metavar="N",
                        help="regular polygon with N vertices")
    figure.add_argument("--solid", type=str, metavar="KIND",
                        help="|".join(kind.value for kind in SolidKind))
    scale = figure.add_mutually_exclusive_group()
    scale.add_argument("--R", help="circumradius")
    scale.add_argument("--c", metavar="SCALE",
                       help="solid coordinate scale (alternative to --R)")

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, **kwargs) -> _Parser:
        # usage errors inside the handler print this subcommand's usage
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler, parser=p)
        return p

    p = command("eval", _cmd_eval, parents=[common, figure],
                help="closed-form sum of d^(2m) over all vertices")
    p.add_argument("--L", required=True, help="distance from the centroid")
    p.add_argument("--m", type=int, required=True, help="power index (sum of d^(2m))")
    p.add_argument("--average", action="store_true",
                   help="print the cyclic average instead of the sum")

    p = command("oracle", _cmd_oracle, parents=[common, figure],
                help="brute-force sum of d^(2m) at a concrete placement")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--L", help="polygon: distance from the centroid")
    p.add_argument("--alpha", help="polygon: polar angle (radians, default 0)")
    p.add_argument("--degrees", action="store_true", help="read --alpha in degrees")
    p.add_argument("--x", help="solid: placement x")
    p.add_argument("--y", help="solid: placement y")
    p.add_argument("--z", help="solid: placement z")

    p = command("locus", _cmd_locus, parents=[common, figure],
                help="classify the locus of sum d^(2m) = C")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--C", required=True, help="the constant sum")

    p = command("solve", _cmd_solve, parents=[common],
                help="distance system branches from (R, L, d1^2), n in {3,4,6}")
    p.add_argument("--polygon", type=int, required=True, choices=tuple(_TRACE))
    p.add_argument("--R", required=True)
    p.add_argument("--L", required=True)
    p.add_argument("--d1sq", required=True, help="squared first distance")

    p = command("recover", _cmd_recover, parents=[common],
                help="recover {R^2, L^2} from averages or distances")
    p.add_argument("--polygon", type=int, choices=tuple(_TRACE),
                   help="recover from a squared-distance list (needs --dsq)")
    p.add_argument("--dsq", help="comma-separated squared distances d1^2,d2^2,...")
    p.add_argument("--s2", help="second-power cyclic average")
    p.add_argument("--s4", help="fourth-power cyclic average")
    p.add_argument("--space", action="store_true",
                   help="with --s2/--s4: use the Platonic-solid relation")

    p = command("verify", _cmd_verify, help="run the seeded verification sweeps")
    p.add_argument("--scope", choices=SCOPES, default="all")
    p.add_argument("--seed", type=int, default=7)

    command("rational24", _cmd_rational24,
            help="impossibility report: rational distances on the unit 24-gon")

    p = command("plot", _cmd_plot, help="emit CSV or SVG plot data on stdout")
    p.add_argument("kind", choices=("locus-circle", "powersum-vs-alpha",
                                    "powersum-vs-L"),
                   help="locus-circle is emitted as SVG, the power-sum curves as CSV")
    p.add_argument("--polygon", type=int, required=True)
    p.add_argument("--R", required=True)
    p.add_argument("--L", help="centroid distance (powersum-vs-alpha)")
    p.add_argument("--Lmax", help="sweep bound (powersum-vs-L), default 3R")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--C", help="constant sum (locus-circle)")
    p.add_argument("--samples", type=int, default=plotting.DEFAULT_SAMPLES)

    command("errata", _cmd_errata, help="print the corrected-misprint registry, re-verified")
    return parser


def _refuse_given(args, parser: _Parser, names: tuple[str, ...], context: str) -> None:
    given = [f"--{name}" for name in names if getattr(args, name) not in (None, False)]
    if given:
        parser.error(f"{', '.join(given)} cannot be used with {context}")


def _check_polygon(n: int, parser: _Parser) -> None:
    if not 3 <= n <= MAX_CLI_VERTICES:
        parser.error(f"--polygon must be in 3..{MAX_CLI_VERTICES}")


def _figure(args, parser: _Parser, exact: bool):
    if (args.polygon is None) == (args.solid is None):
        parser.error("exactly one of --polygon/--solid is required")
    if args.polygon is not None:
        _check_polygon(args.polygon, parser)
        _refuse_given(args, parser, ("c",), "--polygon")
        R = _parse_number(args.R, exact) if args.R is not None else (Fraction(1) if exact else 1.0)
        return PolygonSpec(args.polygon, R)
    kind = SolidKind.parse(args.solid)
    if args.c is not None:
        return SolidSpec(kind, _parse_number(args.c, exact))
    if args.R is not None:
        if exact:
            parser.error("exact solids are parameterised by --c (R is "
                         "irrational for rational scales); use --c or float")
        return SolidSpec.from_circumradius(kind, float(_parse_number(args.R, False)))
    return SolidSpec(kind, Fraction(1) if exact else 1.0)


def _cmd_eval(args, parser: _Parser) -> int:
    exact = args.backend == "exact"
    fig = _figure(args, parser, exact)
    L = _parse_number(args.L, exact)
    if args.average:
        value = cyclic_average(fig, args.m, L).value
    else:
        value = power_sum_closed(fig, args.m, L)
    print(format_scalar(value))
    return 0


def _cmd_oracle(args, parser: _Parser) -> int:
    exact = args.backend == "exact"
    fig = _figure(args, parser, exact)
    if isinstance(fig, PolygonSpec):
        _refuse_given(args, parser, ("x", "y", "z"), "--polygon")
        if args.L is None:
            parser.error("polygon oracle needs --L")
        alpha = float(_parse_number("0" if args.alpha is None else args.alpha, False))
        if args.degrees:
            alpha = math.radians(alpha)
        if exact:
            if alpha != 0.0:
                raise DomainError("the exact polygon oracle runs at alpha = 0; "
                                  "use the float backend for other angles")
            value = power_sum_brute_exact(fig.n, args.m, fig.R,
                                          _parse_number(args.L, True))
        else:
            value = power_sum_brute(fig, args.m,
                                    PlanePlacement(float(_parse_number(args.L, False)),
                                                   alpha))
    else:
        _refuse_given(args, parser, ("L", "alpha", "degrees"), "--solid")
        if args.x is None or args.y is None or args.z is None:
            parser.error("solid oracle needs --x --y --z")
        p = SpacePlacement(*(_parse_number(t, exact) for t in (args.x, args.y, args.z)))
        value = solid_power_sum_brute(fig, args.m, p)
    print(format_scalar(value))
    return 0


def _cmd_locus(args, parser: _Parser) -> int:
    exact = args.backend == "exact"
    fig = _figure(args, parser, exact)
    locus = locus_classify(fig, args.m, _parse_number(args.C, exact))
    print(locus.kind if locus.L is None else f"{locus.kind} L={format_scalar(locus.L)}")
    return 0


def _cmd_solve(args, parser: _Parser) -> int:
    exact = args.backend == "exact"
    branches = solve_distances(args.polygon,
                               _parse_number(args.R, exact),
                               _parse_number(args.L, exact),
                               _parse_number(args.d1sq, exact))
    for label, branch in (("plus ", branches.plus), ("minus", branches.minus)):
        print(f"{label}: " + ", ".join(format_scalar(v) for v in branch))
    return 0


def _cmd_recover(args, parser: _Parser) -> int:
    exact = args.backend == "exact"
    if args.dsq is not None:
        _refuse_given(args, parser, ("s2", "s4", "space"), "--dsq")
        if args.polygon is None:
            parser.error("--dsq recovery needs --polygon {3,4,6}")
        d_sq = tuple(_parse_number(t, exact) for t in args.dsq.split(","))
        pair = recover_spec_from_distances(args.polygon, d_sq)
        branches = (pair.plus, pair.minus)
    elif args.s2 is not None and args.s4 is not None:
        _refuse_given(args, parser, ("polygon",), "--s2/--s4")
        recover = recover_r2_l2_solid if args.space else recover_r2_l2
        hi, lo = recover(_parse_number(args.s2, exact), _parse_number(args.s4, exact))
        branches = ((hi, lo), (lo, hi))
    else:
        parser.error("recover needs either --dsq or both --s2 and --s4")
    for label, (r2, l2) in zip(("plus ", "minus"), branches):
        print(f"{label}: R^2 = {format_scalar(r2)}, L^2 = {format_scalar(l2)}")
    return 0


def _cmd_verify(args, parser: _Parser) -> int:
    text, ok = run_verify(args.scope, args.seed)
    sys.stdout.write(text)
    return 0 if ok else 2


def _cmd_plot(args, parser: _Parser) -> int:
    R = float(_parse_number(args.R, False))
    _check_polygon(args.polygon, parser)
    if args.samples < 1:
        parser.error("--samples must be >= 1")
    if args.kind == "locus-circle":
        if args.C is None:
            parser.error("locus-circle needs --C")
        sys.stdout.write(plotting.svg_locus_circle(args.polygon, R, args.m,
                                                   float(_parse_number(args.C, False))))
        return 0
    if args.kind == "powersum-vs-alpha":
        if args.L is None:
            parser.error("powersum-vs-alpha needs --L")
        sys.stdout.write(plotting.csv_power_sum_vs_alpha(
            args.polygon, R, float(_parse_number(args.L, False)), args.m,
            args.samples))
        return 0
    l_max = float(_parse_number(args.Lmax, False)) if args.Lmax else 3.0 * R
    sys.stdout.write(plotting.csv_power_sum_vs_radius(
        args.polygon, R, args.m, l_max, args.samples))
    return 0


def _cmd_rational24(args, parser: _Parser) -> int:
    print(rational24_report().render())
    return 0


def _cmd_errata(args, parser: _Parser) -> int:
    sys.stdout.write(errata_mod.render_errata_table())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, args.parser)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
