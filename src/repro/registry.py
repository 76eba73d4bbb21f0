"""Plugin-style name registries.

New scenarios — another workload generator, an additional error model, a
different weight-mapping heuristic, a second DRAM device — should plug
into the framework *by name*, without edits to the core modules that
consume them.  Each extensible family owns one :class:`Registry`
instance (``DATASETS``, ``ERROR_MODELS``, ``MAPPING_POLICIES``,
``DRAM_SPECS``); registering is either a call or a decorator::

    from repro.errors.models import ERROR_MODELS

    @ERROR_MODELS.register("model4", aliases=("burst",))
    class BurstErrorModel(ErrorModel):
        ...

Lookups are case-insensitive and normalise ``-``/``_`` so CLI spellings
like ``lpddr3-1600-4gb`` and ``LPDDR3_1600_4GB`` resolve identically.
Unknown names raise :class:`RegistryError` (a :class:`ValueError`, so
existing ``pytest.raises(ValueError)`` call sites keep working) listing
every registered choice.

This module deliberately imports nothing from the rest of the package so
any layer can depend on it without cycles.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Sequence, Tuple


class RegistryError(ValueError):
    """An unknown or duplicate name was used with a :class:`Registry`."""


def _normalise(name: str) -> str:
    return name.strip().lower().replace("-", "_")


class Registry:
    """A name → object table with aliases and decorator registration."""

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: Dict[str, Any] = {}
        self._aliases: Dict[str, str] = {}
        #: normalised key -> the spelling used at registration time,
        #: which is what names()/canonical_name() report back.
        self._display: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        obj: Optional[Any] = None,
        *,
        aliases: Sequence[str] = (),
        overwrite: bool = False,
    ):
        """Register ``obj`` under ``name`` (or use as a decorator)."""

        def _do(target: Any) -> Any:
            key = _normalise(name)
            if not overwrite and (key in self._entries or key in self._aliases):
                raise RegistryError(f"{self.kind} {name!r} is already registered")
            # An overwrite must also displace whatever previously owned
            # the key, alias or entry, or lookups would still resolve to
            # the old object while names() advertises the new one.
            self._aliases.pop(key, None)
            self._entries[key] = target
            self._display[key] = name
            for alias in aliases:
                alias_key = _normalise(alias)
                if not overwrite and (
                    alias_key in self._entries or alias_key in self._aliases
                ):
                    raise RegistryError(
                        f"{self.kind} alias {alias!r} is already registered"
                    )
                self._entries.pop(alias_key, None)
                self._display.pop(alias_key, None)
                self._aliases[alias_key] = key
            return target

        if obj is None:
            return _do  # decorator form
        return _do(obj)

    # ------------------------------------------------------------------
    def get(self, name: str) -> Any:
        """Look up ``name`` (canonical or alias); raise on unknown names."""
        key = _normalise(name)
        key = self._aliases.get(key, key)
        try:
            return self._entries[key]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; choose from {list(self.names())}"
            ) from None

    def canonical_name(self, name: str) -> str:
        """Resolve ``name`` to its canonical registered spelling."""
        key = _normalise(name)
        key = self._aliases.get(key, key)
        if key not in self._entries:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; choose from {list(self.names())}"
            )
        return self._display[key]

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._display.values()))

    def items(self) -> Tuple[Tuple[str, Any], ...]:
        return tuple(
            (self._display[key], entry) for key, entry in sorted(self._entries.items())
        )

    def __contains__(self, name: str) -> bool:
        key = _normalise(name)
        return key in self._entries or key in self._aliases

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {list(self.names())})"
