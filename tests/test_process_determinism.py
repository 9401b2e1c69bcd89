"""Output that does not depend on the process it was computed in.

Python salts ``str`` hashes per process (``PYTHONHASHSEED``), so anything
seeded from the builtin ``hash()`` changes from one run to the next while
every in-process test, seeded or not, still passes.  These tests compute
the affected exhibits' inputs in two processes with different salts and
compare, and keep the builtin ``hash(`` out of ``src/``.
"""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Fig. 6's recall table, HTTP location headers (CF-RAY, EdgeCast's
#: ``Server``) and the front-page resolver's host choice, as JSON.
_SCRIPT = """
import json
from repro.census.protocols import protocol_recall_table
from repro.census.webhosting import FrontpageResolver
from repro.internet.catalog import full_catalog
from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.httpprobe import SiteCodeBook, http_probe
from repro.measurement.platform import planetlab_platform

internet = SyntheticInternet(
    InternetConfig(seed=7, n_unicast_slash24=50, tail_deployments=0),
    catalog=full_catalog(tail_count=0, seed=7)[:40],
)
vps = planetlab_platform(count=3, seed=11).vantage_points
codebook = SiteCodeBook()
print(json.dumps({
    "fig06": protocol_recall_table(internet.deployments),
    "http": [
        http_probe(dep, vp, codebook).headers
        for dep in internet.deployments
        if dep.entry.http_location_header
        for vp in vps
    ],
    "resolve": [str(r.address) for r in FrontpageResolver(internet).resolve_all()],
}, sort_keys=True))
"""


def _run(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_protocol_recall_table_is_equal_across_hash_seeds():
    first, second = _run("1"), _run("2")
    assert '"fig06"' in first and '"CF-RAY"' in first
    assert first == second


def test_no_builtin_hash_in_src():
    """``hash()`` of a str is salted per process: derive keys with
    ``zlib.crc32`` or ``hashlib`` instead."""
    call = re.compile(r"(?<![\w.])hash\(")
    offenders = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if call.search(line.split("#", 1)[0])
    ]
    assert offenders == []
