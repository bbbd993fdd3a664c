"""Fixtures shared across the test packages."""

import gc

import pytest


@pytest.fixture(params=[True, False], ids=["gc-was-on", "gc-was-off"])
def collector(request):
    """Run the test once with the cyclic collector enabled and once with
    it disabled; yields which, and restores the state it found."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was else gc.disable)()
