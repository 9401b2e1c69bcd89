"""The CI workflow installs what the test suite imports.

``tests/conftest.py`` imports ``hypothesis`` at module level, so a CI job
that runs pytest without it fails at collection, whatever it selects.
Every job installs one list: the ``test`` extra of ``pyproject.toml``
plus numpy.  Read as text, with no YAML parser: the workflow's layout
(jobs at two spaces, their steps below) is all this needs.
"""

from __future__ import annotations

import pathlib
import re
from typing import Dict, Set

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def jobs(text: str) -> Dict[str, str]:
    """Job id -> the text of its block, from the ``jobs:`` mapping."""
    body = text.split("\njobs:\n", 1)[1]
    blocks: Dict[str, list] = {}
    current = None
    for line in body.splitlines():
        match = re.match(r"  ([A-Za-z0-9_-]+):\s*$", line)
        if match:
            current = match.group(1)
            blocks[current] = []
        elif current is not None:
            blocks[current].append(line)
    return {name: "\n".join(lines) for name, lines in blocks.items()}


def installed(block: str) -> Set[str]:
    """Every package a job's ``pip install`` lines name."""
    packages: Set[str] = set()
    for match in re.finditer(r"pip install ([^\n]+)", block):
        packages.update(tok for tok in match.group(1).split() if not tok.startswith("-"))
    return packages


def declared_test_extra() -> Set[str]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r"^test\s*=\s*\[([^\]]*)\]", text, re.MULTILINE)
    assert match, "pyproject.toml declares no `test` extra"
    return set(re.findall(r'"([^"]+)"', match.group(1)))


def runs_pytest(block: str) -> bool:
    return re.search(r"-m pytest\b", block) is not None


def test_the_parser_sees_every_job():
    found = jobs(WORKFLOW.read_text(encoding="utf-8"))
    assert {"tier1", "chaos", "parallel", "routing"} <= set(found)
    assert all(runs_pytest(block) for block in found.values())


def test_every_pytest_job_installs_hypothesis():
    missing = [
        name
        for name, block in jobs(WORKFLOW.read_text(encoding="utf-8")).items()
        if runs_pytest(block) and "hypothesis" not in installed(block)
    ]
    assert missing == [], f"jobs running pytest without hypothesis: {missing}"


def test_every_job_installs_the_test_extra_and_numpy():
    wanted = declared_test_extra() | {"numpy"}
    assert "hypothesis" in wanted
    for name, block in jobs(WORKFLOW.read_text(encoding="utf-8")).items():
        assert installed(block) == wanted, name
