"""Output that does not depend on the process it was computed in.

Python salts ``str`` hashes per process (``PYTHONHASHSEED``), so anything
seeded from the builtin ``hash()`` changes from one run to the next while
every in-process test, seeded or not, still passes.  These tests compute
the affected exhibits' inputs, the benchmark's worlds and two service
days in two processes with different salts and compare, and keep the
builtin ``hash(`` out of ``src/``.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

from .internet.test_unicast_columns import WORLD_DIGESTS

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


#: The world columns at the benchmark's shapes, and the committed
#: manifest and results of ``small_service`` days 0-1 (archive root in
#: ``argv[1]``), as sha256 digests.
_WORLD_SCRIPT = """
import hashlib, json, sys
from repro.service.archive import MANIFEST_FILE, RESULTS_FILE
from repro.workflow import small_service
from tests.internet.test_unicast_columns import SHAPES, shape_world, world_digest

service = small_service(sys.argv[1])
days = []
for epoch in range(2):
    service.run_epoch(epoch)
    run_dir = service.archive.run_dir(epoch)
    days.append({
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in (MANIFEST_FILE, RESULTS_FILE)
    })
worlds = {name: world_digest(shape_world(name)) for name in sorted(SHAPES)}
print(json.dumps({"days": days, "worlds": worlds}, sort_keys=True))
"""


#: The committed manifest and results of a BGP-routed ``small_service``
#: day 0 (archive root in ``argv[1]``), as sha256 digests, and the routes
#: the day propagated: the plane batches its announcement sets from a
#: dict, whose order must not depend on str hashing.
_BGP_SCRIPT = """
import hashlib, json, sys
from repro.service.archive import MANIFEST_FILE, RESULTS_FILE
from repro.workflow import small_service

service = small_service(sys.argv[1], routing="bgp")
service.run_epoch(0)
run_dir = service.archive.run_dir(0)
day = {
    name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
    for name in (MANIFEST_FILE, RESULTS_FILE)
}
day["routes_propagated"] = service.internet_for(0).bgp_plane.routes_propagated
print(json.dumps(day, sort_keys=True))
"""


def _run(hash_seed: str, script: str = _SCRIPT, *args: str) -> str:
    env = dict(
        os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)])
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_protocol_recall_table_is_equal_across_hash_seeds():
    first, second = _run("1"), _run("2")
    assert '"fig06"' in first and '"CF-RAY"' in first
    assert first == second


def test_world_and_service_days_are_equal_across_hash_seeds(tmp_path):
    """Anything that varies by process (str-hash or set order, an
    ``id()``-keyed cache, a vectorised transcendental whose bits depend
    on the code path) shows here as a difference between two salts."""
    first = json.loads(_run("1", _WORLD_SCRIPT, str(tmp_path / "one")))
    second = json.loads(_run("2", _WORLD_SCRIPT, str(tmp_path / "two")))
    assert first["worlds"] == WORLD_DIGESTS
    assert len(first["days"]) == 2
    assert first == second


def test_bgp_service_day_is_equal_across_hash_seeds(tmp_path):
    first = json.loads(_run("1", _BGP_SCRIPT, str(tmp_path / "one")))
    second = json.loads(_run("2", _BGP_SCRIPT, str(tmp_path / "two")))
    assert first["routes_propagated"] > 0
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
