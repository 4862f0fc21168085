"""Suite-wide checks.

Every evolver run must start from a certified spectral optimum, whatever
its p and a: a spy wraps the evolver's spectral solves in every test and
fails the test at teardown if one of those did not certify.  A test
that breaks the certificate on purpose is marked `uncertified_start`.
"""

import pytest

import isodense.evolver as ev


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "uncertified_start: the test makes an evolver start from the fallback")


@pytest.fixture(autouse=True)
def certified_spectral_starts(request, monkeypatch):
    uncertified = []

    def spy(solve):
        def wrapper(dens, M0, *args, **kwargs):
            opt = solve(dens, M0, *args, **kwargs)
            if not opt.certified:
                uncertified.append((solve.__name__, dens, M0, opt.residual))
            return opt
        return wrapper

    for name in ("spectral_2d", "spectral_3d_axisym"):
        monkeypatch.setattr(ev, name, spy(getattr(ev, name)))
    yield
    if request.node.get_closest_marker("uncertified_start") is None:
        assert uncertified == [], f"evolver started from the fallback: {uncertified}"
