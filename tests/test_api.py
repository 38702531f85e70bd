"""The public API: every name a charvar module exports must exist, so a
stale `__all__` entry fails here and not at a user's `import *`."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import charvar

MODULES = sorted(info.name for info in pkgutil.iter_modules(charvar.__path__, "charvar."))


def test_every_module_is_covered():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
