"""Fixtures shared by the test modules."""

import pytest

from acscp import homotopy
from acscp.exactmath import MPolyZ

# every cache defined in acscp.homotopy, the ones that read the model among
# them, found rather than listed so that a new one is cleared too
_CACHES = [f for f in vars(homotopy).values()
           if hasattr(f, "cache_clear") and f.__module__ == homotopy.__name__]


@pytest.fixture
def patch_model(monkeypatch):
    """patch_model(name, poly) binds the model constant name (CP4_CONSTRAINT
    or CP6_CONSTRAINT) to poly for the test.  Every cache of acscp.homotopy,
    so every one that reads the model, is empty when the test starts and is
    cleared after it, so a test that counts what they derive takes this
    fixture too."""
    for cached in _CACHES:
        cached.cache_clear()
    yield lambda name, poly: monkeypatch.setattr(homotopy, name, poly)
    for cached in _CACHES:
        cached.cache_clear()


@pytest.fixture
def model_1044(patch_model):
    """The d = 6 model with 1044 n in place of 1152 n in the constraint,
    which is then (3/8)(L_3(p) - 1), so the signature is 1 on its triples."""
    m, n, q = MPolyZ.var("m"), MPolyZ.var("n"), MPolyZ.var("q")
    patch_model("CP6_CONSTRAINT",
                32 * m ** 3 - 252 * m * m + 301 * m - 672 * m * n + 1044 * n + 1488 * q)
