"""Shared fixtures for the longitudinal-service suite.

The expensive object is the *reference archive*: one uninterrupted
5-day timeline of the laptop-scale service.  It is the byte-level
ground truth every chaos and corruption test compares against, so it is
built once per session and treated as read-only; tests that need to
corrupt an archive take a private copy (``scratch_archive``).
"""

from __future__ import annotations

import pathlib
import shutil
from typing import Dict

import pytest

from repro.workflow import small_service

#: Length of the reference timeline (days 0..4).
DAYS = 5


def archive_tree(root) -> Dict[str, bytes]:
    """Every file under ``root`` as relative-path -> bytes."""
    root = pathlib.Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def live_tree(root) -> Dict[str, bytes]:
    """The archive tree minus ``quarantine/``.

    Corruption recovery intentionally *keeps* the rotten bytes around
    for the operator, so repaired archives are compared on their live
    portion only; crash recovery quarantines nothing and compares whole.
    """
    return {
        path: data
        for path, data in archive_tree(root).items()
        if not path.startswith("quarantine/")
    }


@pytest.fixture(scope="session")
def reference_archive(tmp_path_factory) -> pathlib.Path:
    """An uninterrupted 5-day timeline (read-only!)."""
    root = tmp_path_factory.mktemp("reference") / "archive"
    service = small_service(root)
    for epoch in range(DAYS):
        service.run_epoch(epoch)
    return root


@pytest.fixture(scope="session")
def reference_tree(reference_archive) -> Dict[str, bytes]:
    return archive_tree(reference_archive)


@pytest.fixture()
def scratch_archive(reference_archive, tmp_path) -> pathlib.Path:
    """A private full copy of the reference archive, safe to corrupt."""
    root = tmp_path / "archive"
    shutil.copytree(reference_archive, root)
    return root


def same_json(a, b) -> bool:
    """Deep equality that also demands equal key order and equal types,
    as between two ``json.loads`` results (floats by ``repr``, so NaN
    equals NaN and ``-0.0`` differs from ``0.0``)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_json, a, b))
    if isinstance(a, float):
        return repr(a) == repr(b)
    return a == b
