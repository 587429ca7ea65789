"""Public API surface checks: exports resolve and stay importable."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.core.partitioning",
    "repro.mapreduce",
    "repro.observability",
    "repro.services",
    "repro.data",
    "repro.bench",
    "repro.serving",
    "repro.serving.cluster",
    "repro.serving.durability",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    mod = importlib.import_module(package)
    assert hasattr(mod, "__all__"), f"{package} lacks __all__"
    for name in mod.__all__:
        assert hasattr(mod, name), f"{package}.{name} in __all__ but missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_sorted_and_unique(package):
    mod = importlib.import_module(package)
    names = list(mod.__all__)
    assert len(names) == len(set(names)), f"{package}.__all__ has duplicates"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_top_level_quickstart_names():
    # The names the README quickstart uses must stay top-level.
    import repro

    for name in (
        "run_mr_skyline",
        "skyline",
        "generate_qws",
        "extend_dataset",
        "select_services",
        "ServiceRegistry",
        "IncrementalSkyline",
    ):
        assert hasattr(repro, name)


def test_module_docstrings_present():
    for package in PACKAGES + [
        "repro.core.bnl",
        "repro.core.mr_skyline",
        "repro.mapreduce.simulation",
        "repro.services.composition",
    ]:
        mod = importlib.import_module(package)
        assert mod.__doc__ and len(mod.__doc__) > 40, f"{package} under-documented"
