"""The replicated-object interface.

A replica hosts one :class:`ReplicatedObject`.  Update methods mutate it;
read-only methods observe it; the lazy-propagation machinery moves whole
snapshots from the primary group to the secondary group, so application
state must be picklable.  Example applications live in :mod:`repro.apps`.
"""

from __future__ import annotations

import pickle
from typing import Any


class ReplicatedObject:
    """Base class for application state hosted on each replica.

    Subclasses implement ``invoke`` for both reads and updates; the
    middleware, not the object, decides which methods are read-only (via
    the client's read-only registry, §2).  A snapshot is opaque,
    immutable bytes (``__dict__`` pickled), so one multicast lazy update or
    state transfer can be shared by every receiver without aliasing; the
    only requirement on subclasses is that their state pickles.
    """

    def invoke(self, method: str, args: tuple) -> Any:
        """Execute ``method(*args)`` against the state; return its result."""
        handler = getattr(self, method, None)
        if handler is None or not callable(handler):
            raise AttributeError(
                f"{type(self).__name__} has no invokable method {method!r}"
            )
        return handler(*args)

    def snapshot(self) -> bytes:
        """An opaque, immutable, self-contained copy of the current state."""
        return pickle.dumps(self.__dict__, pickle.HIGHEST_PROTOCOL)

    def restore(self, snapshot: bytes) -> None:
        """Replace the current state with a snapshot.

        ``snapshot`` must come from :meth:`snapshot` in this program:
        restoring unpickles it.
        """
        self.__dict__.clear()
        self.__dict__.update(pickle.loads(snapshot))


class CounterObject(ReplicatedObject):
    """Minimal replicated object used throughout the test suite.

    ``increment``/``add`` are updates, ``get`` is read-only.  ``get``
    returns the counter value, so staleness in versions equals the numeric
    lag — handy for asserting consistency bounds.
    """

    def __init__(self) -> None:
        self.value = 0
        self.history: list[int] = []

    def increment(self) -> int:
        self.value += 1
        self.history.append(self.value)
        return self.value

    def add(self, amount: int) -> int:
        self.value += int(amount)
        self.history.append(self.value)
        return self.value

    def get(self) -> int:
        return self.value

    def version_count(self) -> int:
        return len(self.history)
