"""Guard on the environment variables the library reads.

Every ``SGB_*`` variable is a configuration the tests and the benchmark have
to cover, so the set is pinned here: adding one means changing this test on
purpose.  The scan reads every string literal in ``src/repro`` whose whole
value is an ``SGB_`` name (docstrings that mention a variable do not count).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

KNOWN_VARIABLES = {"SGB_WORKERS", "SGB_CACHE", "SGB_CACHE_MEM_BYTES", "SGB_CACHE_DISK_BYTES"}

#: The server settings read every ``SGB_SERVER_<FIELD>`` through one prefix.
KNOWN_PREFIXES = {"SGB_SERVER_"}

_NAME = re.compile(r"SGB_[A-Z0-9_]*")


def _sgb_literals():
    root = Path(repro.__file__).resolve().parent
    found = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _NAME.fullmatch(node.value)
            ):
                found.setdefault(node.value, str(path.relative_to(root)))
    return found


def test_environment_variables_are_exactly_the_known_set():
    found = _sgb_literals()
    assert set(found) == KNOWN_VARIABLES | KNOWN_PREFIXES, found
