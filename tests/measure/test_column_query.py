"""Tests for ColumnQuery, the columnar sibling of RecordQuery."""

import pytest

from repro.core.columns import ColumnStore
from repro.measure.query import ColumnQuery


@pytest.fixture()
def store():
    store = ColumnStore(meta={"kind": "test"})
    country = store.new_column("country", "H", strings="country")
    kind = store.new_column("kind", "B")
    volume = store.new_column("volume", "d")
    codes = store.strings("country")
    rows = [
        ("ESP", 1, 10.0), ("ESP", 0, 20.0), ("JPN", 1, 30.0),
        ("JPN", 1, 40.0), ("PAK", 0, 50.0),
    ]
    for iso3, k, v in rows:
        country.append(codes.code(iso3))
        kind.append(k)
        volume.append(v)
    return store


def test_unfiltered_aggregates(store):
    q = ColumnQuery(store)
    assert q.count() == 5
    assert q.sum("volume") == 150.0
    assert q.mean("volume") == 30.0


def test_where_on_string_column_accepts_labels(store):
    q = ColumnQuery(store).where(country="JPN")
    assert q.count() == 2
    assert q.sum("volume") == 70.0
    assert q.mean("volume") == 35.0


def test_where_chains_and_composes(store):
    base = ColumnQuery(store).where(kind=1)
    assert base.count() == 3
    assert base.where(country="ESP").count() == 1
    # the base query is immutable: refining it did not narrow it
    assert base.count() == 3


def test_where_unknown_label_is_empty_not_error(store):
    q = ColumnQuery(store).where(country="ZZZ")
    assert q.count() == 0
    assert q.sum("volume") == 0.0
    assert q.mean("volume") == 0.0


def test_where_none_values_ignored(store):
    q = ColumnQuery(store).where(country=None)
    assert q.count() == 5


def test_numeric_filter_on_plain_column(store):
    assert ColumnQuery(store).where(kind=0).count() == 2


def test_string_filter_on_numeric_column_rejected(store):
    with pytest.raises(KeyError):
        ColumnQuery(store).where(volume="lots")


def test_count_by_decodes_string_tables(store):
    counts = ColumnQuery(store).count_by("country")
    assert counts == {"ESP": 2, "JPN": 2, "PAK": 1}
    assert ColumnQuery(store).values("country") == ["ESP", "JPN", "PAK"]


def test_count_by_numeric_column(store):
    assert ColumnQuery(store).count_by("kind") == {0: 2, 1: 3}


def test_count_by_respects_filters(store):
    counts = ColumnQuery(store).where(kind=1).count_by("country")
    assert counts == {"ESP": 1, "JPN": 2}
