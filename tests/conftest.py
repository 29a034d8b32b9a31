"""Shared instances and helpers for the test suite."""

import os
from pathlib import Path

import pytest

from boxot import fixtures as fx

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict[str, str]:
    """This process's environment with src/ first on PYTHONPATH.

    A child Python started with it imports the package from this checkout,
    installed or not.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture
def symmetric_interval():
    return fx.symmetric_interval()


@pytest.fixture
def single_sink():
    return fx.single_sink()


@pytest.fixture
def asymmetric_demands():
    return fx.asymmetric_demands()


@pytest.fixture
def symmetric_square():
    return fx.symmetric_square()


@pytest.fixture
def named_instances():
    return fx.named_instances()
