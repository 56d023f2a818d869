"""Every pointer the prose makes must still name something that exists.

DESIGN.md and the verify skill point readers at the test that pins each
contract (``tests/test_x.py::TestClass`` or ``::TestClass::test_case``), and
code, tests and docs point at DESIGN.md chapters and paragraphs (see the
section-citation block below).  A renamed or deleted test, a renumbered
chapter or a renamed paragraph leaves such a pointer dangling, and nothing
else would notice.  Each distinct citation is one case, named after it.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", ".claude/skills/verify/SKILL.md")
CITATION = re.compile(r"(tests/[\w/]+\.py)((?:::\w+)+)")


def _citations(doc: str) -> list:
    """The distinct ``(file, "::A::b")`` citations in ``doc``, in sorted order."""
    return sorted(set(CITATION.findall((ROOT / doc).read_text())))


def _definitions(path: Path) -> set:
    """Every class and function name defined in ``path``, at any nesting depth."""
    tree = ast.parse(path.read_text(), filename=str(path))
    kinds = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {node.name for node in ast.walk(tree) if isinstance(node, kinds)}


@pytest.mark.parametrize("doc", DOCS)
def test_each_doc_cites_tests(doc):
    # Guards the pattern: a doc that seems to cite nothing means the
    # citation format moved and the cases below silently vanished.
    assert _citations(doc)


@pytest.mark.parametrize(
    "relative, chain",
    [
        pytest.param(relative, chain, id=f"{doc}:{relative}{chain}")
        for doc in DOCS
        for relative, chain in _citations(doc)
    ],
)
def test_cited_test_names_a_definition_in_its_file(relative, chain):
    path = ROOT / relative
    assert path.is_file(), f"{relative} does not exist"
    defined = _definitions(path)
    missing = [name for name in chain.split("::")[1:] if name not in defined]
    assert missing == [], f"{relative}{chain}: no definition named {', '.join(missing)}"


# --------------------------------------------------------- section citations
#
# Code, tests and docs point at DESIGN.md by chapter: a bare ``§N`` or a
# chapter with the paragraph it means, ``§N "Title"`` (several titles may
# follow one ``§N``, comma-separated).  A renumbered chapter or a renamed
# paragraph head would leave such a pointer dangling, so each distinct
# citation is one case: ``§N`` must be a ``## §N`` heading, and each quoted
# title must be the start of a bold or italic run-in head of that chapter
# (``**Title.**`` / ``*Title.*`` opening a paragraph or a bullet), compared
# after collapsing whitespace.

SECTION_ROOTS = ("src", "tests", "benchmarks", "examples", ".claude", ".github")
SECTION_SUFFIXES = (".py", ".md", ".yml")
SECTION = re.compile(r'§(\d+)((?:(?:\s+|\s*,\s*)"[^"]+")*)')
TITLE = re.compile(r'"([^"]+)"')
CHAPTER = re.compile(r"^## §(\d+)\b", re.MULTILINE)
BLOCK_BREAK = re.compile(r"\n[ \t]*\n|\n(?=[ \t]*[*-][ \t])")  # a blank line, or a bullet
RUN_IN_HEAD = re.compile(r"\s*(?:[*-][ \t]+)?(\*\*?)(?!\s)(.+?)\1(?!\*)", re.DOTALL)


def _collapse(text: str) -> str:
    """``text`` on one line: a line break (and a ``#`` comment marker after it) is one space."""
    return " ".join(re.sub(r"\n\s*#", " ", text).split())


def _section_sources() -> list:
    """DESIGN.md and every file under the citing roots, as repo-relative paths."""
    paths = [ROOT / "DESIGN.md"]
    for root in SECTION_ROOTS:
        paths += sorted(
            path for path in (ROOT / root).rglob("*")
            if path.suffix in SECTION_SUFFIXES and path.is_file()
        )
    return [path.relative_to(ROOT).as_posix() for path in paths]


def _section_citations() -> list:
    """Distinct ``(file, section, title-or-None)`` citations, in sorted order."""
    found = set()
    for relative in _section_sources():
        for number, titles in SECTION.findall((ROOT / relative).read_text()):
            found.add((relative, int(number), None))
            found.update((relative, int(number), _collapse(t)) for t in TITLE.findall(titles))
    return sorted(found, key=lambda c: (c[0], c[1], c[2] or ""))


def _chapters() -> dict:
    """``{N: text}`` for every ``## §N`` chapter of DESIGN.md."""
    text = (ROOT / "DESIGN.md").read_text()
    marks = list(CHAPTER.finditer(text))
    ends = [mark.start() for mark in marks[1:]] + [len(text)]
    return {int(mark.group(1)): text[mark.end():end] for mark, end in zip(marks, ends)}


def _heads(chapter: str) -> list:
    """The run-in paragraph heads of one chapter, whitespace collapsed."""
    matches = (RUN_IN_HEAD.match(block) for block in BLOCK_BREAK.split(chapter))
    return [_collapse(match.group(2)) for match in matches if match]


def test_section_citations_are_found():
    # Guards the pattern, as test_each_doc_cites_tests does for test ids.
    cited = _section_citations()
    assert any(title for _, _, title in cited)
    assert {relative for relative, _, _ in cited} > {"DESIGN.md"}


@pytest.mark.parametrize(
    "section, title",
    [
        pytest.param(section, title, id=f"{relative}:{section}:{title or ''}")
        for relative, section, title in _section_citations()
    ],
)
def test_cited_section_names_a_chapter_and_its_paragraph(section, title):
    chapters = _chapters()
    assert section in chapters, f"DESIGN.md has no chapter §{section}"
    if title is not None:
        heads = _heads(chapters[section])
        assert any(
            head == title or (head.startswith(title) and not head[len(title)].isalnum())
            for head in heads
        ), f'§{section} has no run-in paragraph head "{title}"'
