"""What a worker process holds, read from ``/proc``, and what it may hold.

:func:`process_memory` reads one process's private (USS), proportional
(PSS), peak (VmHWM) and shared-memory (RssShmem) resident sizes;
:func:`program_param_bytes` is the bound a worker's shared-memory
resident set is held to: the parameters of the layers its tile program
runs, each held once (batch norm is folded in at the build).
"""

from __future__ import annotations

from typing import Dict, Iterator

from repro.models.layers import ConvSpec
from repro.nn.tiles import LayerStep, SegmentProgram
from repro.nn.weights import Weights

__all__ = ["process_memory", "program_layers", "program_param_bytes"]

_MB = float(1 << 20)


def process_memory(pid: int) -> "Dict[str, float]":
    """USS and PSS from ``smaps_rollup``; VmHWM and RssShmem from
    ``status``; in MB, to 0.1."""
    kb: "Dict[str, int]" = {}
    for path in (f"/proc/{pid}/smaps_rollup", f"/proc/{pid}/status"):
        with open(path) as handle:
            for line in handle:
                name, _, rest = line.partition(":")
                if rest.strip().endswith("kB"):
                    kb[name] = int(rest.split()[0])
    uss = kb["Private_Clean"] + kb["Private_Dirty"]
    return {
        "uss_mb": round(uss * 1024 / _MB, 1),
        "pss_mb": round(kb["Pss"] * 1024 / _MB, 1),
        "vm_hwm_mb": round(kb["VmHWM"] * 1024 / _MB, 1),
        "shmem_mb": round(kb["RssShmem"] * 1024 / _MB, 1),
    }


def _steps(program: SegmentProgram) -> "Iterator[LayerStep]":
    for unit in program.units:
        yield from unit.steps
        for path in unit.paths:
            yield from path.steps


def program_layers(program: SegmentProgram) -> "Dict[str, ConvSpec]":
    """Every conv layer ``program`` runs, by name, in program order."""
    return {
        step.layer.name: step.layer
        for step in _steps(program)
        if isinstance(step.layer, ConvSpec)
    }


def program_param_bytes(weights: Weights, program: SegmentProgram) -> int:
    """Parameter bytes (weight and bias) of the conv layers ``program``
    runs, each layer once."""
    return sum(
        array.nbytes
        for name in program_layers(program)
        for array in weights[name].values()
    )
