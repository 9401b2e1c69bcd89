"""The API guide's code runs.

Every fenced ``python`` block of ``docs/API_GUIDE.md`` is executed, each
in a fresh namespace with a temporary working directory (blocks write
archives).  A fragment that leans on names from the
surrounding prose (``net``, ``census1``, ...) is fenced as
``python illustrative`` and skipped.
"""

from __future__ import annotations

import pathlib
import re
import textwrap
from typing import List, Tuple

import pytest

GUIDE = pathlib.Path(__file__).resolve().parents[1] / "docs" / "API_GUIDE.md"
FENCE = re.compile(r"^(\s*)```(.*)$")


def python_blocks(text: str) -> List[Tuple[str, str, str]]:
    """``(id, info string, source)`` of every ``python`` fence; the id is
    the enclosing heading's slug and the block's ordinal under it."""
    blocks = []
    lines = text.splitlines()
    heading, ordinal = "preamble", 0
    i = 0
    while i < len(lines):
        if lines[i].startswith("#"):
            heading = re.sub(r"[^a-z0-9]+", "-", lines[i].lstrip("#").lower()).strip("-")
            ordinal = 0
        match = FENCE.match(lines[i])
        if match:
            indent, info = match.group(1), match.group(2).strip()
            j = i + 1
            while not lines[j].startswith(indent + "```"):
                j += 1
            if info.split()[:1] == ["python"]:
                ordinal += 1
                source = textwrap.dedent("\n".join(lines[i + 1 : j]))
                blocks.append((f"{heading}-{ordinal}", info, source))
            i = j
        i += 1
    return blocks


BLOCKS = python_blocks(GUIDE.read_text(encoding="utf-8"))
RUNNABLE = [(name, source) for name, info, source in BLOCKS if info == "python"]


def test_the_guide_has_runnable_and_illustrative_blocks():
    infos = {info for _, info, _ in BLOCKS}
    assert infos == {"python", "python illustrative"}
    assert len(RUNNABLE) >= 10


@pytest.mark.parametrize(
    "source", [source for _, source in RUNNABLE], ids=[name for name, _ in RUNNABLE]
)
def test_block_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(GUIDE), "exec"), {"__name__": "api_guide"})
