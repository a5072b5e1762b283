"""The references between the docs and the package resolve: every backticked
dotted name in the docs names something in the package, and every
"docs/theory.md section N" in the sources names an existing section."""

import importlib
import pkgutil
import re
from pathlib import Path

import negdep

ROOT = Path(__file__).resolve().parent.parent
DOCS = (ROOT / "docs" / "theory.md", ROOT / "README.md")
MODULES = {"negdep"} | {m.name for m in pkgutil.iter_modules(negdep.__path__)}

DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
# a citation may wrap onto the next line, inside a docstring or a comment
CITATION = re.compile(r"docs/theory\.md\s+(?:#\s*)?section\s+(\d+)")
HEADING = re.compile(r"^## (\d+)\. ", re.M)


def _resolve(dotted: str):
    """The object a dotted name names, read relative to the package unless
    it starts with it; a missing name raises."""
    parts = dotted.split(".")
    if parts[0] != "negdep":
        parts.insert(0, "negdep")
    k = len(parts)
    while k > 1:
        try:
            obj = importlib.import_module(".".join(parts[:k]))
            break
        except ModuleNotFoundError:
            k -= 1
    else:
        obj = negdep
    for name in parts[k:]:
        obj = getattr(obj, name)
    return obj


def test_backticked_dotted_names_resolve_in_the_package():
    for doc in DOCS:
        names = [name for name in DOTTED.findall(doc.read_text())
                 if name.split(".")[0] in MODULES]
        assert names, doc
        for name in names:
            _resolve(name)


def test_cited_theory_sections_exist():
    sections = set(HEADING.findall((ROOT / "docs" / "theory.md").read_text()))
    cited = [(path.name, n) for path in sorted((ROOT / "src" / "negdep").glob("*.py"))
             for n in CITATION.findall(path.read_text())]
    assert cited
    assert [(name, n) for name, n in cited if n not in sections] == []
