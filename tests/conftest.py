"""Fixtures shared by the test modules."""

import pytest

from acscp import homotopy
from acscp.exactmath import MPolyZ


@pytest.fixture
def model_1044(monkeypatch):
    """The d = 6 model with 1044 n in place of 1152 n in the constraint,
    which is then (3/8)(L_3(p) - 1), so the signature is 1 on its triples.
    The caches that read the model are cleared before and after."""
    m, n, q = MPolyZ.var("m"), MPolyZ.var("n"), MPolyZ.var("q")
    constraint = 32 * m ** 3 - 252 * m * m + 301 * m - 672 * m * n + 1044 * n + 1488 * q
    caches = (homotopy._symbolic_cp6_rows, homotopy._cp6_f, homotopy._pontrjagin_cached)
    for cached in caches:
        cached.cache_clear()
    monkeypatch.setattr(homotopy, "CP6_CONSTRAINT", constraint)
    monkeypatch.setitem(homotopy._CONSTRAINTS, 6, constraint)
    yield constraint
    for cached in caches:
        cached.cache_clear()
