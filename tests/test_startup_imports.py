"""Start-up import graph: `repro serve` loads only what serving runs.

The package ``__init__`` modules resolve their public names lazily
(PEP 562), so importing the serve path must not drag in the bench
drivers, the MapReduce engine or the services layer.  Each check runs in
a fresh interpreter: the test process itself has imported everything.
"""

import importlib
import json
import subprocess
import sys
import threading

import pytest

from tests.serving.harness import subprocess_env

#: What `repro serve` (single node, --cluster and --data-dir) imports
#: before printing its banner.
SERVE_PATH = [
    "repro.cli",
    "repro.serving.server",
    "repro.serving.service",
    "repro.serving.cluster.local",
    "repro.serving.durability",
]

#: Modules the serve path must not load.
NOT_AT_STARTUP = [
    "repro.bench",
    "repro.analysis",
    "repro.services",
    "repro.core.mr_skyline",
    "repro.core.partitioning",
    "repro.mapreduce.runner",
    "scipy",
]

#: What `repro serve --tcp` must not load before its banner, in either
#: mode: libcrypto (the blake2b helpers import hashlib when called), the
#: lock sanitizer without REPRO_SANITIZE, and the trace reader/exporters.
NOT_BEFORE_BANNER = [
    "_hashlib",
    "repro.observability.sanitizer",
    "repro.observability.report",
    "repro.observability.export",
]

LAZY_PACKAGES = [
    "repro",
    "repro.core",
    "repro.observability",
    "repro.serving",
    "repro.mapreduce",
    "repro.services",
    "repro.bench",
    "repro.serving.cluster",
    "repro.serving.durability",
]


def _run(code: str) -> list:
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout)


def test_serve_path_skips_engine_bench_and_services():
    loaded = _run(
        "import importlib, json, sys\n"
        f"for name in {SERVE_PATH!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    unexpected = [m for m in NOT_AT_STARTUP if m in loaded]
    assert not unexpected, f"serve path imported {unexpected}"
    # The measured serve path loads 27 repro modules; a regression that
    # re-couples a package shows up here first.
    assert len([m for m in loaded if m.startswith("repro")]) <= 27


def _imported_before_banner(*serve_args: str) -> list:
    """Modules ``python -X importtime -m repro.cli serve --tcp`` imports
    before it prints its banner, read from its stderr."""
    env = subprocess_env()
    env.pop("REPRO_SANITIZE", None)  # a sanitized CI run must not count
    proc = subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "repro.cli", "serve",
         "--tcp", "127.0.0.1:0", *serve_args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    modules, banner = [], None
    try:
        for line in proc.stderr:
            if line.startswith("import time:"):
                modules.append(line.rsplit("|", 1)[-1].strip())
            elif " on 127.0.0.1:" in line:
                banner = line
                break
    finally:
        watchdog.cancel()
        proc.terminate()
        try:
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
    assert banner is not None, "the server printed no banner"
    return modules


@pytest.mark.parametrize("serve_args", [(), ("--cluster", "2")], ids=["single", "cluster"])
def test_serve_entry_point_loads_no_libcrypto_or_trace_reader(serve_args):
    modules = _imported_before_banner(*serve_args)
    assert "repro.serving.server" in modules
    unexpected = [m for m in NOT_BEFORE_BANNER if m in modules]
    assert not unexpected, f"serve {' '.join(serve_args)} imported {unexpected}"
    if not serve_args:
        engine = [m for m in modules if m.startswith("repro.mapreduce")]
        assert not engine, f"a single-node server imported {engine}"


def test_star_import_and_quickstart_names():
    names = _run(
        "import json\n"
        "from repro import *\n"
        "from repro import run_mr_skyline\n"
        "print(json.dumps(sorted(k for k in dir() if not k.startswith('_'))))\n"
    )
    import repro

    assert set(repro.__all__) - {"__version__"} <= set(names)
    assert "run_mr_skyline" in names


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_to_its_home_object(package):
    mod = importlib.import_module(package)
    table = {name: home for home, names in mod._EXPORTS.items() for name in names}
    assert set(table) <= set(mod.__all__)
    for name in mod.__all__:
        value = getattr(mod, name)
        if name in table:
            assert value is getattr(importlib.import_module(table[name]), name)
    with pytest.raises(AttributeError):
        getattr(mod, "no_such_export")


def test_skyline_name_stays_the_function():
    # repro.core.skyline is both a submodule and a function; the package
    # attribute must stay the function however the submodule was reached.
    names = _run(
        "import json\n"
        "import repro.core.skyline\n"
        "from repro.core import skyline\n"
        "from repro import skyline as top\n"
        "print(json.dumps([callable(skyline), type(skyline).__name__,"
        " type(top).__name__]))\n"
    )
    assert names == [True, "function", "function"]


def test_large_register_loads_no_mapreduce_engine():
    # Every bulk load runs in core, however large: registering 60,000
    # rows must not pull in the MapReduce engine.
    loaded = _run(
        "import json, sys\n"
        "import numpy as np\n"
        "from repro.serving.service import SkylineService\n"
        "service = SkylineService()\n"
        "service.register('big', np.random.default_rng(3).random((60_000, 3)))\n"
        "assert len(service.store('big')) == 60_000\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    for name in ("repro.core.mr_skyline", "repro.mapreduce.runner"):
        assert name not in loaded, f"register loaded {name}"
