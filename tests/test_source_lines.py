"""Source layout of the package: no line of ``src/c2fseg`` is longer than ``MAX_LINE`` characters."""

from pathlib import Path

import pytest

import c2fseg

PACKAGE = Path(c2fseg.__file__).parent
MAX_LINE = 120


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.relative_to(PACKAGE.parent).as_posix())
def test_no_line_is_longer_than_the_limit(path):
    long = [f"line {k}: {len(line)}" for k, line in enumerate(path.read_text().splitlines(), 1) if len(line) > MAX_LINE]
    assert not long, f"lines over {MAX_LINE} characters: {long}"
