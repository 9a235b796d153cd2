"""Unit tests for replicated objects and the example applications."""

import pytest

from repro.apps.document import SharedDocument
from repro.apps.kvstore import KVStore
from repro.apps.stock import StockTicker
from repro.core.state import CounterObject, ReplicatedObject


# ---------------------------------------------------------------------------
# ReplicatedObject base
# ---------------------------------------------------------------------------
def test_invoke_dispatches_to_methods():
    counter = CounterObject()
    assert counter.invoke("increment", ()) == 1
    assert counter.invoke("get", ()) == 1


def test_invoke_unknown_method_raises():
    with pytest.raises(AttributeError):
        CounterObject().invoke("nope", ())


def test_invoke_non_callable_attribute_raises():
    with pytest.raises(AttributeError):
        CounterObject().invoke("value", ())


def _counter_updates(app):
    app.increment()
    app.add(5)


def _kvstore_updates(app):
    app.put("x", [1, 2])
    app.put("y", {"nested": ["z"]})
    app.delete("x")
    app.put(f"k{app.mutations()}", [app.size()])  # not idempotent


def _document_updates(app):
    app.append_paragraph("first")
    app.append_paragraph("second")
    app.replace_paragraph(0, "revised")


def _ticker_updates(app):
    app.tick("A", 10.0)
    app.tick("A", 11.0)
    app.tick("B", 5.0)


APPS = [
    pytest.param(CounterObject, _counter_updates, id="counter"),
    pytest.param(KVStore, _kvstore_updates, id="kvstore"),
    pytest.param(SharedDocument, _document_updates, id="document"),
    pytest.param(StockTicker, _ticker_updates, id="ticker"),
]


@pytest.mark.parametrize("app_cls, updates", APPS)
def test_snapshot_restore_round_trip(app_cls, updates):
    a, b = app_cls(), app_cls()
    updates(a)
    b.restore(a.snapshot())
    assert vars(b) == vars(a)
    assert b.snapshot() == a.snapshot()


@pytest.mark.parametrize("app_cls, updates", APPS)
def test_one_snapshot_restored_into_two_objects_shares_no_state(app_cls, updates):
    """The shared-multicast case: every receiver restores the same snapshot
    object, and mutating one receiver must not show through the other."""
    source, reference = app_cls(), app_cls()
    updates(source)
    updates(reference)
    snap = source.snapshot()
    first, second = app_cls(), app_cls()
    first.restore(snap)
    second.restore(snap)
    updates(first)
    assert vars(first) != vars(reference)
    assert vars(second) == vars(reference)
    assert vars(source) == vars(reference)


def test_snapshot_is_deep_copy():
    a = CounterObject()
    a.increment()
    snap = a.snapshot()
    a.increment()
    b = CounterObject()
    b.restore(snap)
    assert b.value == 1  # later mutation invisible


def test_restore_replaces_existing_state():
    a = CounterObject()
    a.add(10)
    b = CounterObject()
    a.restore(b.snapshot())
    assert a.value == 0 and a.history == []


# ---------------------------------------------------------------------------
# CounterObject
# ---------------------------------------------------------------------------
def test_counter_version_equals_history_length():
    counter = CounterObject()
    counter.increment()
    counter.add(5)
    assert counter.version_count() == 2
    assert counter.get() == 6


# ---------------------------------------------------------------------------
# KVStore
# ---------------------------------------------------------------------------
def test_kvstore_crud():
    store = KVStore()
    store.put("a", 1)
    store.put("b", 2)
    assert store.get("a") == 1
    assert store.get("missing", "default") == "default"
    assert store.keys() == ["a", "b"]
    assert store.size() == 2
    assert store.delete("a") is True
    assert store.delete("a") is False
    assert store.clear() == 1
    assert store.size() == 0


def test_kvstore_mutation_counter():
    store = KVStore()
    store.put("a", 1)
    store.delete("a")
    store.clear()
    assert store.mutations() == 3


def test_kvstore_read_only_declaration_covers_reads_only():
    store = KVStore()
    for method in KVStore.READ_ONLY_METHODS:
        before = store.mutations()
        store.invoke(method, ("k",) if method == "get" else ())
        assert store.mutations() == before  # read-only methods don't mutate


def test_kvstore_snapshot_round_trip():
    a = KVStore()
    a.put("x", [1, 2])
    b = KVStore()
    b.restore(a.snapshot())
    assert b.dump() == {"x": [1, 2]}
    a.invoke("put", ("y", 3))
    assert "y" not in b.dump()


# ---------------------------------------------------------------------------
# SharedDocument
# ---------------------------------------------------------------------------
def test_document_edit_cycle():
    doc = SharedDocument("spec")
    idx = doc.append_paragraph("first")
    assert idx == 0
    doc.append_paragraph("second")
    old = doc.replace_paragraph(0, "revised")
    assert old == "first"
    assert doc.read_paragraph(0) == "revised"
    assert doc.paragraph_count() == 2
    assert doc.edit_count() == 3
    removed = doc.delete_paragraph(1)
    assert removed == "second"
    assert doc.edit_count() == 4


def test_document_read_returns_version_and_copy():
    doc = SharedDocument()
    doc.append_paragraph("p")
    version, paragraphs = doc.read_document()
    assert version == 1
    paragraphs.append("tampered")
    assert doc.paragraph_count() == 1  # returned list is a copy


# ---------------------------------------------------------------------------
# StockTicker
# ---------------------------------------------------------------------------
def test_ticker_updates_and_quotes():
    ticker = StockTicker()
    ticker.tick("A", 10.0)
    ticker.tick("A", 11.0)
    ticker.tick("B", 5.0)
    assert ticker.quote("A") == 11.0
    assert ticker.quote("missing") is None
    assert ticker.tick_count() == 3
    assert ticker.quotes() == {"A": 11.0, "B": 5.0}


def test_ticker_movers_sorted_by_relative_move():
    ticker = StockTicker()
    ticker.tick("A", 100.0)
    ticker.tick("A", 101.0)  # +1 %
    ticker.tick("B", 10.0)
    ticker.tick("B", 12.0)  # +20 %
    movers = ticker.movers()
    assert movers[0][0] == "B"
    assert movers[0][1] == pytest.approx(0.2)


def test_ticker_rejects_bad_price():
    with pytest.raises(ValueError):
        StockTicker().tick("A", 0.0)


def test_all_apps_declare_read_only_sets():
    for app_cls in (KVStore, SharedDocument, StockTicker):
        assert app_cls.READ_ONLY_METHODS
        instance = app_cls()
        for method in app_cls.READ_ONLY_METHODS:
            assert callable(getattr(instance, method))
