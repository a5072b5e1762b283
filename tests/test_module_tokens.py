"""Every module of the package stays below 8,192 lexer tokens. Compiling a
module past that count doubles the parser's token buffer, which raises the
peak memory of an import with no bytecode cache by about 0.45 MiB."""

import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "negdep"
TOKEN_LIMIT = 8192


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_stays_below_the_token_limit(module):
    with open(PACKAGE / module, "rb") as fh:
        count = sum(1 for _ in tokenize.tokenize(fh.readline))
    assert count < TOKEN_LIMIT, f"{module} has {count} tokens"
