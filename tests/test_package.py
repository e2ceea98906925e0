"""The package's public names."""

from __future__ import annotations

import zenolab


def test_every_exported_name_resolves():
    # a public name removed from a module must leave __all__ too
    assert len(set(zenolab.__all__)) == len(zenolab.__all__)
    assert [n for n in zenolab.__all__ if not hasattr(zenolab, n)] == []
