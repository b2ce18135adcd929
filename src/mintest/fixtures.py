"""Bundled example data files."""

from __future__ import annotations

from importlib import resources

from .matrix import BooleanMatrix, parse_matrix
from .mandatory import ClassSet, parse_class_set


class UnknownFixtureError(ValueError):
    """A fixture name that is not bundled with the package."""


_FIXTURES = {
    "q25x10": "q25x10.txt",
    "m8_local": "m8_local_classes.txt",
}


def list_fixtures() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURES))


def fixture_text(name: str) -> str:
    try:
        filename = _FIXTURES[name]
    except KeyError:
        raise UnknownFixtureError(
            f"unknown fixture {name!r}; available: {', '.join(list_fixtures())}"
        ) from None
    return (resources.files(__package__) / "data" / filename).read_text("utf-8")


def load_fixture_matrix(name: str = "q25x10") -> BooleanMatrix:
    return parse_matrix(fixture_text(name))


def load_fixture_classes(name: str = "m8_local") -> ClassSet:
    return parse_class_set(fixture_text(name))
