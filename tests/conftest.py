import os
from math import log

import pytest

import matula
from matula import PrimeOracle, primes, set_default_oracle


@pytest.fixture(scope="session", autouse=True)
def _children_import_this_package():
    """Interpreters that tests start import the package under test, also
    when it is not installed."""
    src = os.path.dirname(os.path.dirname(matula.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", path)
        yield


@pytest.fixture(scope="session")
def oracle():
    """One default-bound oracle shared across the session; extensions are
    monotone, so sharing only saves re-sieving."""
    return PrimeOracle()


@pytest.fixture
def ceiling():
    """``ceiling(limit_value)`` installs a fresh oracle with that ceiling
    (default 2^32) as the process-wide default and
    returns it; the previous default comes back when the test ends.  Build
    trees after the call: numbers memoized earlier stay on their nodes."""
    previous = primes._default_oracle

    def install(limit_value=None):
        installed = PrimeOracle(limit_value=limit_value)
        set_default_oracle(installed)
        return installed

    yield install
    set_default_oracle(previous)


@pytest.fixture
def overshoot(monkeypatch):
    """``overshoot(m, lower)`` makes ``lower`` the tightest lower bound on
    p_m that the oracle reads, as a wrong bound past p_m would; every other
    bound stays as proven."""

    def install(m, lower):
        proven = primes._ln_prime_bounds

        def patched(lo, hi):
            bounds = proven(lo, hi)
            return (log(lower), bounds[1]) if lo == hi == log(m) else bounds

        monkeypatch.setattr(primes, "_ln_prime_bounds", patched)

    return install
