"""The strict-typing package list agrees everywhere it is written down.

Lint rule R5 is the local mirror of the CI ``mypy --strict -p ...`` gate,
and ``mypy.ini`` documents the same command in its header.  A package
added to or dropped from one list but not the others silently narrows
one of the two gates.
"""

import pathlib
import re

import pytest

from repro.analysis.lint import _TYPED_PACKAGES

ROOT = pathlib.Path(__file__).resolve().parents[2]


def strict_packages(path):
    text = (ROOT / path).read_text(encoding="utf-8")
    return set(re.findall(r"-p\s+repro\.(\w+)", text))


@pytest.mark.parametrize("path", [".github/workflows/ci.yml", "mypy.ini"])
def test_mypy_packages_match_lint_r5(path):
    assert strict_packages(path) == set(_TYPED_PACKAGES)
