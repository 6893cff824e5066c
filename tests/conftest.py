import importlib.resources

import numpy as np
import pytest

from lotterydesign import (
    BenefitProfile,
    monetize,
    parse_case,
)


def bisect_root(f, lo, hi, tol=1e-12, max_iter=200):
    """Plain bisection oracle, independent of the library's root-finding."""
    f_lo, f_hi = f(lo), f(hi)
    assert f_lo * f_hi <= 0.0, "oracle bracket does not straddle a root"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if hi - lo < tol:
            return mid
        if f_lo * f_mid <= 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def random_profile(rng, n=None, lo=0.6, hi=3.0):
    """Random scaled-log profile satisfying the aggregate-marginal condition."""
    if n is None:
        n = int(rng.integers(2, 7))
    coeffs = rng.uniform(lo, hi, n)
    while coeffs.sum() <= 1.05:
        coeffs = rng.uniform(lo, hi, n)
    return BenefitProfile.scaled_log(coeffs)


@pytest.fixture(scope="session")
def i2_profile():
    return BenefitProfile.scaled_log([1.0, 1.0])


@pytest.fixture(scope="session")
def case30_text():
    return importlib.resources.files("lotterydesign").joinpath("data/case30.m").read_text()


@pytest.fixture(scope="session")
def case30(case30_text):
    return parse_case(case30_text)


@pytest.fixture(scope="session")
def case30_scenario(case30):
    return monetize(case30, demand_scale=1.3, rate=0.1, hours=1.0)


@pytest.fixture(scope="session")
def i30_profile(case30_scenario):
    return BenefitProfile.scaled_log(
        [100.0 + b for b in case30_scenario.load_bus_ids])
