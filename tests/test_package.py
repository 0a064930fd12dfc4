"""Tests for the package's public surface."""
import hhtelm


def test_every_export_is_bound_once():
    assert len(set(hhtelm.__all__)) == len(hhtelm.__all__)
    missing = [name for name in hhtelm.__all__ if not hasattr(hhtelm, name)]
    assert missing == []
