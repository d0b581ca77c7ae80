import random

import pytest

from dgcalc import presets
from dgcalc.graded import Model

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # `--hypothesis-profile=ci`: the same examples on every run, and a failure
    # prints the blob that replays it locally
    settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture
def t2():
    return presets.torus(2)


@pytest.fixture
def s2():
    return presets.sphere2()


@pytest.fixture
def s3():
    return presets.sphere3()


@pytest.fixture
def nil():
    return presets.nilmanifold()


@pytest.fixture
def mixed():
    # fuzzing playground with odd and even generators and a busy differential;
    # not a manifold model (its cohomology keeps growing), so only algebra
    # laws are tested on it
    return Model(
        [("x", 1), ("y", 1), ("z", 1), ("w", 1), ("v", 1), ("p", 2), ("r", 3)],
        formal_dimension=4,
        differential=lambda m: {
            "v": m.gen("x") * m.gen("y"),
            "p": m.gen("x") * m.gen("y") * m.gen("z"),
            "r": m.gen("x") * m.gen("y") * m.gen("z") * m.gen("w"),
        },
        name="mixed",
    )
