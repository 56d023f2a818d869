"""``check_golden`` rejects what it must, in both modes, on every committed output."""

import pathlib
import re

import pytest

HERE = pathlib.Path(__file__).parent
NAMES = sorted(path.stem for path in (HERE / "output").glob("*.txt"))
NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


def _last_number(text, replace):
    *_, match = NUMBER.finditer(text)
    return text[: match.start()] + replace(match.group()) + text[match.end() :]


EDITS = {  # edit -> whether (exact, at TOL) passes it; None: either outcome
    "unchanged": (lambda text: text, (True, True)),
    "last digit": (
        lambda text: _last_number(text, lambda n: n[:-1] + str((int(n[-1]) + 1) % 10)),
        (False, None),
    ),
    "beyond TOL": (
        lambda text: _last_number(text, lambda n: f"{2 * abs(float(n)) + 1:g}"),
        (False, False),
    ),
    "text": (
        lambda text: re.sub("[A-Za-z]", lambda letter: letter.group().swapcase(), text, count=1),
        (False, False),
    ),
}


def test_every_committed_output_has_one_figure_test():
    checked = [
        name
        for path in HERE.glob("test_bench_*.py")
        for name in re.findall(r'golden\("(\w+)"', path.read_text(encoding="utf-8"))
    ]
    assert sorted(checked) == NAMES


@pytest.mark.parametrize("edit", EDITS)
@pytest.mark.parametrize("name", NAMES)
def test_comparator(golden, tmp_path, name, edit):
    committed = (HERE / "output" / f"{name}.txt").read_text(encoding="utf-8")
    (tmp_path / f"{name}.txt").write_text(committed, encoding="utf-8")
    apply, outcomes = EDITS[edit]
    rendering = apply(committed[:-1])  # a rendering is the file less its newline
    assert rendering != committed[:-1] or edit == "unchanged"
    fresh = tmp_path / f"{name}.txt.new"
    for exact, passes in zip((True, False), outcomes):
        if passes:
            golden(name, rendering, exact=exact, directory=tmp_path)
            assert not fresh.exists()
        elif passes is False:
            with pytest.raises(pytest.fail.Exception, match=re.escape(f"mv {fresh} ")):
                golden(name, rendering, exact=exact, directory=tmp_path)
            assert fresh.read_text(encoding="utf-8") == rendering + "\n"
            fresh.unlink()
