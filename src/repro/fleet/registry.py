"""Named models for fleet serving: engines, programs and warm tables.

A fleet serves several models at once; the registry is the one place
they are prepared.  Registering a model builds its
:class:`~repro.nn.executor.Engine` (weights initialised or supplied),
prewarms the shared vectorized segment table — so every later planning
or re-planning call for that model, including churn-time re-placements,
hits the warm cache — and caches each compiled
:class:`~repro.runtime.program.PlanProgram` keyed by ``(model, plan)``
so tenants sharing a placement share the compilation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.core.plan import PipelinePlan
from repro.cost.tables import get_segment_table
from repro.models.graph import Model
from repro.nn.executor import Engine
from repro.nn.weights import Weights
from repro.runtime.program import PlanProgram, compile_plan

__all__ = ["ModelEntry", "ModelRegistry"]


@dataclass(frozen=True)
class ModelEntry:
    """One registered model: its graph and its engine."""

    name: str
    model: Model
    engine: Engine

    @property
    def weights(self) -> Weights:
        return self.engine.weights


class ModelRegistry:
    """Named models with prebuilt engines and warm cost tables."""

    def __init__(self) -> None:
        self._entries: "Dict[str, ModelEntry]" = {}
        self._programs: "Dict[Tuple[str, PipelinePlan], PlanProgram]" = {}

    def register(
        self,
        name: str,
        model: Model,
        weights: Optional[Weights] = None,
        seed: int = 0,
    ) -> ModelEntry:
        """Register ``model`` under ``name`` (idempotent per name).

        Builds the engine and prewarms the model's segment cost table;
        re-registering an existing name must supply the same model.
        """
        existing = self._entries.get(name)
        if existing is not None:
            if existing.model is not model:
                raise ValueError(f"model name {name!r} is already registered")
            return existing
        engine = Engine(model, weights, seed=seed)
        get_segment_table(model)
        entry = ModelEntry(name, model, engine)
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> ModelEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"model {name!r} is not registered "
                f"(have: {sorted(self._entries)})"
            ) from None

    def compile(self, name: str, plan: PipelinePlan) -> PlanProgram:
        """The compiled program for ``plan`` on model ``name`` (cached)."""
        entry = self.get(name)
        key = (name, plan)
        try:
            cached = self._programs.get(key)
        except TypeError:  # unhashable plan member: compile uncached
            return compile_plan(entry.model, plan)
        if cached is None:
            cached = compile_plan(entry.model, plan)
            self._programs[key] = cached
        return cached

    def names(self) -> "Tuple[str, ...]":
        return tuple(sorted(self._entries))

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> "Iterator[ModelEntry]":
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)
