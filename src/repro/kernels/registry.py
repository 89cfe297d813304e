"""Backend registry for the planner's numeric kernels.

The planner bottoms out in three numeric hot paths — dense Prim MST,
2-opt and Or-opt tour improvement — that every plan request pays on a
cache miss. This module makes those paths *pluggable*: a
:class:`KernelBackend` bundles one implementation of each kernel plus an
``exact`` flag, and call sites dispatch through :func:`resolve` instead
of importing an implementation directly.

Two backends ship built in:

* ``reference`` — byte-for-byte the historical implementations
  (:func:`repro.graphs.mst.prim_mst`, :func:`repro.tsp.improve.two_opt`,
  :func:`repro.tsp.improve.or_opt`). The ground truth.
* ``fast`` — engineered 2-opt (neighbour lists with don't-look bits) and
  Or-opt (vectorised inner scan) that are *move-for-move identical* to the
  reference under the deterministic tie-breaks, just faster. Its Prim is
  the reference dense scan: every frontier-compaction variant measured
  slower. ``exact=True``.

Selection precedence (implemented by :func:`resolve`):

1. an explicit ``backend=`` argument at the call site,
2. the process default set by :func:`set_default_backend` (the CLI's
   ``--kernel-backend`` flag and the serve worker initializer use this),
3. the ``REPRO_KERNEL_BACKEND`` environment variable,
4. ``"reference"``.

Backends whose outputs may legitimately differ from the reference
(``exact=False`` — e.g. a stochastic or approximation-relaxed kernel)
must be distinguishable in the plan-artifact cache; callers fold the
backend name into the cache fingerprint exactly when ``exact`` is false
(see :mod:`repro.plan.pipeline`).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigError

__all__ = [
    "KernelBackend", "register_backend", "get_backend", "resolve",
    "available_backends", "set_default_backend", "default_backend_name",
    "DEFAULT_BACKEND", "ENV_VAR",
]

#: Environment variable consulted when no explicit/process default is set.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: The ultimate fallback backend.
DEFAULT_BACKEND = "reference"


@dataclass(frozen=True)
class KernelBackend:
    """One implementation set for the planner's numeric hot paths.

    Parameters
    ----------
    name:
        Registry key; also what cache fingerprints embed for non-exact
        backends.
    prim_mst:
        Drop-in for :func:`repro.graphs.mst.prim_mst`
        (``(dist, *, root=0) -> list[(parent, child)]``).
    two_opt, or_opt:
        Drop-ins for the :mod:`repro.tsp.improve` improvers
        (``(dist, tour, *, ..., obs=None) -> Tour``).
    exact:
        ``True`` when the backend is guaranteed to produce outputs
        identical to the ``reference`` backend on every input (same
        edges in the same order, same tours). Exact backends share
        plan-artifact cache entries with the reference; non-exact ones
        get their own cache namespace.
    """

    name: str
    prim_mst: Callable[..., Any]
    two_opt: Callable[..., Any]
    or_opt: Callable[..., Any]
    exact: bool = True
    meta: dict[str, Any] = field(default_factory=dict, compare=False)


_REGISTRY: dict[str, KernelBackend] = {}
_LOCK = threading.Lock()
_PROCESS_DEFAULT: str | None = None
_BUILTINS = ("reference", "fast")


def _load_builtins() -> None:
    """Import-register the shipped backends on first registry access.

    Lazy so that ``repro.kernels`` can be imported from the modules the
    reference backend itself wraps (``graphs/mst.py``, ``tsp/improve.py``)
    without an import cycle.
    """
    if all(name in _REGISTRY for name in _BUILTINS):
        return
    from repro.kernels import fast, reference  # noqa: F401  (register on import)

    reference.register()
    fast.register()


def register_backend(backend: KernelBackend, *, replace: bool = False) -> None:
    """Add ``backend`` to the registry.

    Third parties (tests, experimental kernels) call this to expose a new
    ``--kernel-backend`` value. Re-registering an existing name requires
    ``replace=True`` so a typo cannot silently shadow a builtin.
    """
    with _LOCK:
        if backend.name in _REGISTRY and not replace:
            raise ConfigError(
                f"kernel backend {backend.name!r} is already registered")
        _REGISTRY[backend.name] = backend


def available_backends() -> tuple[str, ...]:
    """Sorted names of every registered backend (builtins included)."""
    _load_builtins()
    with _LOCK:
        return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> KernelBackend:
    """Look up a backend by name; unknown names raise :class:`ConfigError`."""
    _load_builtins()
    with _LOCK:
        try:
            return _REGISTRY[name]
        except KeyError:
            known = ", ".join(sorted(_REGISTRY))
            raise ConfigError(
                f"unknown kernel backend {name!r} (available: {known})"
            ) from None


def set_default_backend(name: str | None) -> None:
    """Set (or with ``None`` clear) the process-wide default backend.

    Validates eagerly so a bad ``--kernel-backend`` fails at startup, not
    on the first plan request.
    """
    global _PROCESS_DEFAULT
    if name is not None:
        get_backend(name)  # raises ConfigError on unknown names
    _PROCESS_DEFAULT = name


def default_backend_name() -> str:
    """The backend :func:`resolve` would pick absent an explicit argument."""
    if _PROCESS_DEFAULT is not None:
        return _PROCESS_DEFAULT
    env = os.environ.get(ENV_VAR, "").strip()
    return env if env else DEFAULT_BACKEND


def resolve(backend: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve a call-site ``backend=`` value to a :class:`KernelBackend`.

    Precedence: explicit argument > process default
    (:func:`set_default_backend`) > ``REPRO_KERNEL_BACKEND`` env var >
    ``"reference"``. Accepts an already-resolved :class:`KernelBackend`
    unchanged so threading a resolved backend through nested calls is
    free.
    """
    if isinstance(backend, KernelBackend):
        return backend
    return get_backend(backend if backend is not None else default_backend_name())
