"""Shared fixtures: small environments and the default closed-loop system."""

import math

import numpy as np
import pytest

from qrrt import dynamics, env as envmod


@pytest.fixture
def free_env():
    """Empty 10x10 box, start bottom-left, goal top-right."""
    return envmod.Environment(
        bounds=(0.0, 0.0, 10.0, 10.0),
        obstacles=(),
        x0=(1.0, 1.0),
        xG=(9.0, 9.0),
        delta=0.5,
    )


@pytest.fixture
def box_env():
    """10x10 box with one central square obstacle."""
    return envmod.Environment(
        bounds=(0.0, 0.0, 10.0, 10.0),
        obstacles=((4.0, 4.0, 6.0, 6.0),),
        x0=(1.0, 1.0),
        xG=(9.0, 9.0),
        delta=0.5,
    )


@pytest.fixture
def system():
    return dynamics.default_system()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def wilson_hilferty_chi2_quantile(dof: int, z: float) -> float:
    """Approximate upper chi-square quantile via the Wilson-Hilferty cube.

    An independent acceptance threshold for goodness-of-fit statistics; z
    is the standard-normal quantile (z = 3.09 ~ 99.9%).
    """
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + z * math.sqrt(h)) ** 3
