"""Event records emitted by the simulator.

The engine logs one :class:`DispatchEvent` per executed charging
scheduling (with per-charger breakdown), one :class:`ChargeEvent` per sensor
charge, and one :class:`DeathEvent` per energy expiration. Dynamic-scenario
sources add :class:`FleetEvent` (charger breakdown/repair),
:class:`ChurnEvent` (sensor leave/rejoin) and :class:`RequestEvent`
(charging-request arrival). Metrics are aggregations over this log; tests
assert against it directly.

Charges and deaths come in batches — every sensor a dispatch charges,
every sensor one drain interval kills — so the engine does not build their
records one by one. It logs each batch as one :class:`EventColumns`: the
record type plus one array per field (a scalar for a field every row
shares, like a dispatch's time). The records are built from the columns
only when someone reads them, and are then equal, field for field and bit
for bit, to the records the batch stands for.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Any

import numpy as np

__all__ = ["DispatchEvent", "ChargeEvent", "DeathEvent", "FleetEvent",
           "ChurnEvent", "RequestEvent", "EventColumns"]


@dataclass(frozen=True, slots=True)
class DispatchEvent:
    """The q chargers executed one charging scheduling.

    Parameters
    ----------
    time:
        Dispatch time.
    cost:
        Total tour length of the scheduling.
    n_sensors:
        Number of sensors charged.
    n_active_chargers:
        Chargers that actually left their depot (non-empty tours).
    """

    time: float
    cost: float
    n_sensors: int
    n_active_chargers: int


@dataclass(frozen=True, slots=True)
class ChargeEvent:
    """One sensor restored to full capacity.

    Parameters
    ----------
    time:
        When it happened.
    sensor:
        Sensor id.
    energy_before:
        Energy level immediately before the charge (diagnoses how close a
        policy cuts it — 0 means a knife-edge arrival).
    """

    time: float
    sensor: int
    energy_before: float


@dataclass(frozen=True, slots=True)
class DeathEvent:
    """A sensor ran out of energy.

    Parameters
    ----------
    time:
        Exact crossing time (interpolated within the drain interval).
    sensor:
        Sensor id.
    """

    time: float
    sensor: int


@dataclass(frozen=True, slots=True)
class FleetEvent:
    """A mobile charger broke down or came back from repair.

    Parameters
    ----------
    time:
        When the availability flipped.
    charger:
        Charger index ``0..q-1``.
    available:
        New availability: ``False`` = breakdown, ``True`` = repaired.
    """

    time: float
    charger: int
    available: bool


@dataclass(frozen=True, slots=True)
class ChurnEvent:
    """A sensor left the network or rejoined it.

    Parameters
    ----------
    time:
        When the membership flipped.
    sensor:
        Sensor id.
    online:
        New membership: ``False`` = left (stops draining, is neither
        charged nor counted), ``True`` = rejoined.
    """

    time: float
    sensor: int
    online: bool


@dataclass(frozen=True, slots=True)
class RequestEvent:
    """A sensor issued an explicit charging request.

    Parameters
    ----------
    time:
        Arrival time (Poisson process under
        :class:`~repro.sim.sources.PoissonRequestSource`).
    sensor:
        The requesting sensor.
    energy:
        Residual energy at request time.
    """

    time: float
    sensor: int
    energy: float


class EventColumns:
    """A batch of same-kind event records stored field by field.

    Parameters
    ----------
    kind:
        The record type (:class:`ChargeEvent`, :class:`DeathEvent`, ...).
    **columns:
        One value per field of ``kind``: a ``(size,)`` array holding that
        field for every row, or a scalar that every row shares. At least
        one field must be an array; it sets the batch size.

    Arrays are used as given, not copied: the caller hands them over.
    Indexing and slicing materialise records — row ``i`` is
    ``kind(**{field: column[i]})`` with numpy scalars converted to the
    matching Python ``int``/``float``/``bool`` — and :meth:`column` reads
    one field without building any record.
    """

    __slots__ = ("kind", "_columns", "_size")

    def __init__(self, kind: type, **columns: Any) -> None:
        names = kind.__dataclass_fields__
        if columns.keys() != names.keys():
            raise TypeError(f"EventColumns({kind.__name__}): need fields "
                            f"{list(names)}, got {list(columns)}")
        sizes = {len(v) for v in columns.values() if isinstance(v, np.ndarray)}
        if len(sizes) != 1:
            raise ValueError(f"EventColumns({kind.__name__}): need array columns "
                             f"of one length, got lengths {sorted(sizes)}")
        self.kind = kind
        self._columns = tuple(columns[name] for name in names)
        self._size = sizes.pop()

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: int | slice) -> Any:
        if isinstance(index, slice):
            cols = [v[index].tolist() if isinstance(v, np.ndarray) else repeat(v)
                    for v in self._columns]
            return [self.kind(*row) for row in zip(*cols)]
        i = range(self._size)[index]
        return self.kind(*(v[i].item() if isinstance(v, np.ndarray) else v
                           for v in self._columns))

    def column(self, name: str) -> np.ndarray:
        """The ``(size,)`` values of field ``name`` (shared scalars broadcast)."""
        v = self._columns[list(self.kind.__dataclass_fields__).index(name)]
        return v if isinstance(v, np.ndarray) else np.full(self._size, v)

    def __repr__(self) -> str:
        return f"EventColumns({self.kind.__name__}, size={self._size})"
