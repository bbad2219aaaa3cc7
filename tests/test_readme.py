"""Every README command line that states its output prints that output."""

import re
import shlex
from pathlib import Path

import pytest

from cyclicavg.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"^cyclicavg (.+?)\s+# -> (.+)$", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE)


def test_the_readme_states_outputs():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("args, expected", EXAMPLES)
def test_readme_command_prints_its_stated_output(capsys, args, expected):
    assert main(shlex.split(args)) == 0
    assert capsys.readouterr().out.split("\n")[0] == expected.strip()
