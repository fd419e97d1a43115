"""Per-layer wall time, measured from outside the program.

:class:`LayerTimer` wraps public methods of the objects a ``ViperStore``
holds — ``store.index``, ``store.device`` and ``store.perf.charge`` — by
setting instance attributes that shadow the class methods, and removes
them again on :meth:`LayerTimer.uninstall`.  Nothing under ``src/``
changes.  The wrappers pass every argument through and return what the
wrapped method returns, so answers and the simulated ledger are the same
with and without them (the benchmark's tests check both).

Attribution:

* index time is keyed by the store operation the client is running
  (``timer.op``), so the probe ``ViperStore.put_many`` makes through
  ``index.get_many`` counts as write time, not read time;
* device time is split into reads (``read_record``/``read_records``)
  and writes (allocation, ``write_record(s)``, ``free_record``);
* a call made while another wrapped call is running is not timed again,
  so an index method calling another public index method counts once;
* ``perf.charge`` is counted, not timed: it runs tens of times per key
  and a timer there would cost more than the call itself.

Store self time is what is left of the request wall time after index
and device time, so it also carries the wrappers' own overhead.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Index methods ``ViperStore`` calls on its batch paths (and the scalar
#: ones the generic batch defaults fall back to).
INDEX_METHODS = (
    "get", "get_many", "scan_many", "insert", "insert_many", "upsert",
    "upsert_many", "update",
)
#: Device methods that read records, counting the records they read.
DEVICE_READS: Dict[str, Callable[[tuple], int]] = {
    "read_record": lambda args: 1,
    "read_records": lambda args: len(args[0]),
}
#: Device methods on the write path, counting the records they write.
DEVICE_WRITES: Dict[str, Callable[[tuple], int]] = {
    "write_record": lambda args: 1,
    "write_records": lambda args: len(args[0]),
    "allocate_page": lambda args: 0,
    "allocate_slots": lambda args: 0,
    "free_record": lambda args: 0,
}


class LayerTimer:
    """Accumulates wall seconds and unit counts per ``(layer, kind)``."""

    def __init__(self) -> None:
        #: The store operation in flight ("get" / "put" / "scan").
        self.op = "get"
        self.seconds: Dict[Tuple[str, str], float] = {}
        self.units: Dict[Tuple[str, str], int] = {}
        self.charge_calls = 0
        self._busy = False
        self._installed: List[Tuple[object, str]] = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, layer: str, fn, kind: Optional[str],
              units: Optional[Callable[[tuple], int]]):
        def timed(*args, **kwargs):
            if self._busy:
                return fn(*args, **kwargs)
            self._busy = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._busy = False
                key = (layer, kind or self.op)
                self.seconds[key] = self.seconds.get(key, 0.0) + dt
                if units is not None:
                    self.units[key] = self.units.get(key, 0) + units(args)

        return timed

    def _set(self, obj, name: str, wrapper) -> None:
        setattr(obj, name, wrapper)
        self._installed.append((obj, name))

    def install(self, store) -> None:
        """Wrap ``store.index``, ``store.device`` and ``store.perf``."""
        for name in INDEX_METHODS:
            if hasattr(store.index, name):
                fn = getattr(store.index, name)
                self._set(store.index, name,
                          self._wrap("index", fn, None, None))
        for kind, table in (("read", DEVICE_READS), ("write", DEVICE_WRITES)):
            for name, units in table.items():
                fn = getattr(store.device, name)
                self._set(store.device, name,
                          self._wrap("pmem", fn, kind, units))
        charge = store.perf.charge

        def counted(event, n=1):
            self.charge_calls += 1
            charge(event, n)

        self._set(store.perf, "charge", counted)

    def uninstall(self) -> None:
        """Drop every wrapper, restoring the class methods."""
        for obj, name in reversed(self._installed):
            vars(obj).pop(name, None)
        self._installed.clear()

    # -- readout -------------------------------------------------------

    def time(self, layer: str, kind: Optional[str] = None) -> float:
        return sum(
            s for (lay, k), s in self.seconds.items()
            if lay == layer and (kind is None or k == kind)
        )

    def count(self, layer: str, kind: str) -> int:
        return self.units.get((layer, kind), 0)
