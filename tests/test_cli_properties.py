"""Hypothesis property of the CLI's exit-code contract: for any argument list
drawn from the subcommands, figures and awkward numbers, `main` returns 0 or
2, or argparse exits 1 with the subcommand's usage; nothing else escapes."""

import contextlib
import io

import pytest

from cyclicavg.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                               database=None)

MODERATE = ("0", "1", "2", "-1", "1/3", "2.5", "-0.5")
AWKWARD = ("", "nan", "-nan", "inf", "-inf", "1/0", "1e400", "-1e400", "1e-400",
           "1e-2200", "x")
numbers = st.sampled_from(MODERATE * 3 + AWKWARD)
moderate = st.sampled_from(MODERATE)
powers = st.sampled_from(("-1", "0", "1", "2", "3", "5", "8", "99"))
polygons = st.sampled_from(("3", "4", "5", "6", "12", "64", "0", "65"))
solids = st.sampled_from(("tetrahedron", "octahedron", "cube", "icosahedron",
                          "dodecahedron", "sphere"))
rarely = st.sampled_from((True, False, False, False))

# each subcommand's required options, then its optional ones
REQUIRED = {
    "eval": ("--L", "--m"),
    "oracle": ("--m",),
    "locus": ("--m", "--C"),
    "solve": ("--polygon", "--R", "--L", "--d1sq"),
    "recover": (),  # one of two modes, drawn below
}
OPTIONAL = {
    "eval": ("--R", "--c", "--average"),
    "oracle": ("--R", "--c", "--L", "--alpha", "--degrees", "--x", "--y", "--z"),
    "locus": ("--R", "--c"),
    "solve": (),
    "recover": ("--polygon", "--dsq", "--s2", "--s4", "--space"),
}
FLAGS = ("--average", "--degrees", "--space")
FIGURED = ("eval", "oracle", "locus")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(REQUIRED)))
    backend = draw(st.sampled_from(("float", "exact")))
    # the exact oracle's cost grows with m and with the digits of its inputs
    cheap = command == "oracle" and backend == "exact"
    argv = [command, "--backend", backend]
    options = REQUIRED[command]
    if command == "recover":
        options = draw(st.sampled_from((("--polygon", "--dsq"), ("--s2", "--s4"))))
    if command in FIGURED:
        figure = draw(st.sampled_from(("--polygon", "--solid") * 4 + ("",)))
        if figure:
            argv += [figure, draw(polygons if figure == "--polygon" else solids)]
        if command == "oracle":  # the placement the figure reads
            options += ("--L",) if figure == "--polygon" else ("--x", "--y", "--z")
    options += tuple(option for option in OPTIONAL[command]
                     if option not in options and draw(rarely))
    for option in options:
        if option in FLAGS:
            argv.append(option)
        elif option == "--m":  # the oracles take any m; keep the exact one's small
            argv.append(f"--m={draw(powers.filter(lambda m: m != '99') if cheap else powers)}")
        elif option == "--polygon":
            argv.append(f"--polygon={draw(st.sampled_from(('3', '4', '6') * 3 + ('5',)))}")
        elif option == "--dsq":
            argv.append("--dsq=" + ",".join(draw(st.lists(numbers, min_size=1, max_size=7))))
        else:
            argv.append(f"{option}={draw(moderate if cheap else numbers)}")
    return argv


@SETTINGS
@hypothesis.given(argvs())
@hypothesis.example(["eval", "--polygon", "3", "--R", "1", "--m", "1", "--L", "1e-2200",
                     "--backend", "exact"])
@hypothesis.example(["oracle", "--polygon", "12", "--R", "64", "--m", "7", "--L", "1e-320",
                     "--backend", "exact"])
@hypothesis.example(["solve", "--polygon", "3", "--R", "1", "--L", "1e-2200", "--d1sq", "1",
                     "--backend", "exact"])
@hypothesis.example(["locus", "--polygon", "3", "--R", "1e-200", "--m", "2", "--C", "5e-324"])
def test_cli_exits_0_or_2_or_with_usage(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 1, argv
            assert err.getvalue().startswith(f"usage: cyclicavg {argv[0]}"), argv
            return
    assert code in (0, 2), argv
