from contextlib import contextmanager

import pytest

import mintest.pruning as pruning
from mintest import (
    BooleanMatrix,
    GeneratorConfig,
    generate_matrix,
    load_fixture_classes,
    load_fixture_matrix,
)

# Frozen facts of the bundled 25x10 fixture, independently confirmed by the
# exhaustive oracle (all 2^10 column subsets).
Q25_MANDATORY = (5, 8, 10)
Q25_MIN_LENGTH = 7
Q25_LOCAL_QUADS = [
    (1, 2, 4, 6),
    (1, 2, 4, 7),
    (1, 2, 4, 9),
    (1, 3, 4, 6),
    (1, 3, 4, 7),
    (2, 3, 6, 9),
    (2, 4, 6, 9),
    (2, 6, 7, 9),
    (3, 4, 6, 9),
]
Q25_MINIMAL_TESTS = sorted(
    tuple(sorted(Q25_MANDATORY + quad)) for quad in Q25_LOCAL_QUADS
)
Q25_CLASSES = {
    (0, 0, 0): (11, 15, 18),
    (0, 0, 1): (2, 7, 19, 20, 21),
    (0, 1, 0): (3, 9, 12, 13, 16),
    (1, 0, 0): (1, 8),
    (1, 0, 1): (6, 10, 14, 23, 25),
    (1, 1, 1): (4, 5, 17, 24),
}
Q25_UNDISTINGUISHED = (150, 164, 164, 146, 146, 156, 144, 150, 144, 150)


@pytest.fixture(scope="session")
def q25():
    return load_fixture_matrix("q25x10")


@pytest.fixture(scope="session")
def m8():
    return load_fixture_classes("m8_local")


@pytest.fixture
def tiny3x2():
    return BooleanMatrix.from_strings(["00", "01", "10"])


def random_matrix(seed, rows=8, cols=6, density=0.5):
    return generate_matrix(
        GeneratorConfig(rows=rows, cols=cols, ones_density=density, seed=seed)
    )


@contextmanager
def kernel_caps(**caps):
    """Set the subset scan's caps on mintest.pruning (_LATTICE_WIDTH,
    _TRIPLE_MASK_CAP, _BLOCK) for a with block, for tests that cannot
    take monkeypatch.  A name pruning does not define raises
    AttributeError, so a moved or renamed cap cannot turn the forcing
    into a no-op."""
    saved = {name: getattr(pruning, name) for name in caps}
    try:
        for name, value in caps.items():
            setattr(pruning, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(pruning, name, value)
