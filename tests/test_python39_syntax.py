"""The package must import on Python 3.9, the oldest interpreter CI runs.

``dataclass`` grew keywords in 3.10 (``slots``, ``kw_only``, ``match_args``)
and 3.11 (``weakref_slot``); on 3.9 each is a ``TypeError`` at import time.
This scan catches them on any newer interpreter too.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NEWER_THAN_39 = {"slots", "kw_only", "match_args", "weakref_slot"}


def _callee_name(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def test_no_dataclass_keywords_newer_than_39():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee_name(node.func) == "dataclass":
                for keyword in node.keywords:
                    if keyword.arg in NEWER_THAN_39:
                        offenders.append(f"{path.relative_to(SRC)}:{node.lineno}: {keyword.arg}=")
    assert not offenders, offenders
