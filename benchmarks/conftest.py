"""The one check of the committed figure outputs.

Every figure test runs its experiment once, checks the qualitative shape the
paper reports, and compares its rendering with the committed table in
``benchmarks/output/<name>.txt`` through ``check_golden``.  A rendering that
differs is written next to the table as ``<name>.txt.new`` (ignored by git),
and the failure names the ``mv`` that accepts it.
"""

import itertools
import pathlib
import re
import sys

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: From 3.12 on ``sum()`` is compensated, which can move an agent-engine
#: figure's low bits; the tables were written below that line (as the agent
#: ledger was), so only there are they compared byte for byte.
COMPENSATED_SUM = sys.version_info >= (3, 12)

#: Rendered tables round to 3 decimals; allow that plus a little platform slack.
TOL = dict(rel=0.02, abs=6e-3)

_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


def _same_line(golden, line, exact):
    if golden is None or line is None or exact:
        return golden == line
    golden_parts, parts = _NUMBER.split(golden), _NUMBER.split(line)
    # The text between the numbers matches exactly; the numbers at TOL.
    return golden_parts[::2] == parts[::2] and all(
        float(number) == pytest.approx(float(expected), **TOL)
        for expected, number in zip(golden_parts[1::2], parts[1::2])
    )


def check_golden(name, rendering, exact=not COMPENSATED_SUM, directory=OUTPUT_DIR):
    """Fail unless ``rendering`` is ``directory/<name>.txt``: byte for byte if
    ``exact``, else with every number within ``TOL`` and the text between
    them unchanged."""
    path = directory / f"{name}.txt"
    fresh = path.with_name(path.name + ".new")
    text = rendering + "\n"
    golden = path.read_text(encoding="utf-8") if path.exists() else ""
    pairs = itertools.zip_longest(golden.split("\n"), text.split("\n"))
    for number, (expected, line) in enumerate(pairs, 1):
        if not _same_line(expected, line, exact):
            fresh.write_text(text, encoding="utf-8")
            pytest.fail(
                f"{path.name} line {number} ({'byte-exact' if exact else 'at TOL'}):\n"
                f"  committed: {expected!r}\n  rendered:  {line!r}\n"
                f"the rendering is in {fresh}; accept it with:\n  mv {fresh} {path}",
                pytrace=False,
            )
    fresh.unlink(missing_ok=True)


@pytest.fixture
def golden():
    """``golden(name, rendering)``: the committed-output check (``check_golden``)."""
    return check_golden
