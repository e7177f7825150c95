"""Fixtures shared by the test modules."""

import pytest

from pointless.field import FiniteField


@pytest.fixture
def refuse_tables(monkeypatch):
    """refuse_tables(past=0) makes every later exp/log table build of a
    field of order past `past` fail the test."""
    def arm(past=0):
        build = FiniteField.dlog_tables

        def refuse(field, **kwargs):
            if field.q > past:
                raise AssertionError(f"built the tables of {field!r}")
            return build(field, **kwargs)
        monkeypatch.setattr(FiniteField, "dlog_tables", refuse)
    return arm
