"""The prose docs cite tests by node id; every cited name must still exist.

DESIGN.md and the verify skill point readers at the test that pins each
contract (``tests/test_x.py::TestClass`` or ``::TestClass::test_case``).
A renamed or deleted test leaves such a pointer dangling, and nothing else
would notice.  Each distinct citation is one case, named after it.
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
