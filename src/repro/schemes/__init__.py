"""The four parallelization schemes compared in the paper's evaluation."""

from repro.schemes.base import PlanningError, Scheme, weighted_assignments
from repro.schemes.early_fused import EarlyFusedScheme, default_fuse_count
from repro.schemes.interleaved import InterleavedScheme
from repro.schemes.layer_wise import LayerWiseScheme
from repro.schemes.local import local_fallback_plan
from repro.schemes.optimal_fused import OptimalFusedScheme
from repro.schemes.pico import PicoScheme

__all__ = [
    "EarlyFusedScheme",
    "InterleavedScheme",
    "LayerWiseScheme",
    "OptimalFusedScheme",
    "PicoScheme",
    "PlanningError",
    "Scheme",
    "available_schemes",
    "default_fuse_count",
    "get_scheme",
    "local_fallback_plan",
    "weighted_assignments",
]

#: The paper's comparison set, in its Table I order, plus the
#: successor-literature IOP scheme (arXiv:2409.07693).
ALL_SCHEMES = (
    LayerWiseScheme,
    EarlyFusedScheme,
    OptimalFusedScheme,
    PicoScheme,
    InterleavedScheme,
)

#: The blessed short names (the paper's Table I abbreviations).
_REGISTRY = {
    "pico": PicoScheme,
    "lw": LayerWiseScheme,
    "efl": EarlyFusedScheme,
    "ofl": OptimalFusedScheme,
    "iop": InterleavedScheme,
}


def available_schemes() -> "tuple":
    """The registered scheme names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_scheme(name: str, **kwargs) -> Scheme:
    """Instantiate a scheme by its short name (case-insensitive).

    The registry behind the unified API (:func:`repro.simulate` and the
    CLI): ``"pico"`` (pipelined cooperation), ``"lw"`` (layer-wise /
    MoDNN), ``"efl"`` (early-fused / DeepThings), ``"ofl"``
    (optimal-fused / AOFL) and ``"iop"`` (interleaved operator
    partitioning, channel splits).  ``kwargs`` pass straight to the
    scheme's constructor (e.g. ``get_scheme("efl", n_fused=4)``).
    """
    cls = _REGISTRY.get(name.strip().lower())
    if cls is None:
        raise PlanningError(
            f"unknown scheme {name!r}; available: "
            + ", ".join(available_schemes())
        )
    return cls(**kwargs)
