import numpy as np
import pytest

from surfmc import build_layout


@pytest.fixture(scope="session")
def layout3():
    return build_layout(3)


@pytest.fixture(scope="session")
def layout4():
    return build_layout(4)


@pytest.fixture(scope="session")
def layout5():
    return build_layout(5)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
