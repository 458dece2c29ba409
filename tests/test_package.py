"""The package's public surface."""

import pytest

import mchern


def test_every_exported_name_resolves():
    assert [name for name in mchern.__all__ if not hasattr(mchern, name)] == []


def test_sweep_needs_an_identity_selector():
    with pytest.raises(TypeError):
        mchern.sweep_identities(2, 2)
