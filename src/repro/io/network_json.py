"""JSON round-trip for :class:`~repro.network.model.SensorNetwork`."""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ReproError
from repro.geometry.bbox import Rect
from repro.geometry.point import Point
from repro.network.depot import BaseStation
from repro.network.model import SensorNetwork

__all__ = ["network_to_dict", "network_from_dict", "save_network", "load_network"]

from repro.io.files import load_json, save_json


def network_to_dict(network: SensorNetwork) -> dict[str, Any]:
    """Plain-JSON-types representation of a network (exact: coordinates,
    cycles and batteries are stored at full float precision)."""
    n = network.n
    xy = network.coordinates.tolist()
    return {
        "area": [network.area.x0, network.area.y0,
                 network.area.x1, network.area.y1],
        "base_station": list(network.base_station.position.as_tuple()),
        "sensors": [
            {"x": x, "y": y, "cycle": c, "battery": b}
            for (x, y), c, b in zip(xy[:n], network.cycles.tolist(),
                                    network.batteries.tolist())
        ],
        "depots": xy[n:],
    }


def network_from_dict(data: dict[str, Any]) -> SensorNetwork:
    """Inverse of :func:`network_to_dict`.

    Decodes straight into the network's columns: one ``float()`` per value,
    no per-sensor objects, then the network's one vectorised validation.

    Raises
    ------
    ReproError
        ("malformed network data") on any invalid input: missing keys,
        wrong shapes, non-numeric or non-finite values, non-positive cycles
        or batteries, no sensors or no depots.
    """
    try:
        area = Rect(*[float(v) for v in data["area"]])
        base = BaseStation(position=Point(*[float(v) for v in data["base_station"]]))
        sensors = np.array(
            [(float(s["x"]), float(s["y"]), float(s["cycle"]), float(s["battery"]))
             for s in data["sensors"]], dtype=np.float64).reshape(-1, 4)
        depots = np.array([(float(x), float(y)) for x, y in data["depots"]],
                          dtype=np.float64).reshape(-1, 2)
        return SensorNetwork(coordinates=np.concatenate([sensors[:, :2], depots]),
                             cycles=sensors[:, 2], batteries=sensors[:, 3],
                             base_station=base, area=area)
    except (KeyError, TypeError, ValueError, OverflowError, ReproError) as exc:
        raise ReproError(f"network_from_dict: malformed network data ({exc})") from exc


def save_network(network: SensorNetwork, path: str | Path) -> Path:
    """Serialise a network to ``path``; returns the resolved path."""
    return save_json(path, "sensor-network", network_to_dict(network))


def load_network(path: str | Path) -> SensorNetwork:
    """Load a network previously written by :func:`save_network`."""
    return network_from_dict(load_json(path, "sensor-network"))
