"""The bench spine: one protocol, one envelope, one check, one front door.

Each ``repro.bench.<name>`` module in :data:`BENCHES` is a ``run()``
that measures and returns ``(sections, gates)``, plus a :class:`Bench`
declaring which of those sections are deterministic; everything else a
benchmark program has to decide is decided here, once.

How a BENCH file is written and re-checked
------------------------------------------
``python -m repro.bench.<name>`` writes ``BENCH_<name>.json`` (``--out``
elsewhere, ``--out ''`` nowhere) in one envelope::

    {"bench": <name>, "quick": bool, "meta": {python, numpy, platform,
     threads}, <the run's sections...>, "gates": {name: bool}, "pass": bool}

and exits non-zero when a gate fails.  ``--check PATH`` writes nothing:
it runs the bench afresh (``--quick``: on its small configuration) and
holds the fresh report against the committed one with
:func:`check_report` —

* every :class:`Section` the bench declares deterministic is compared
  exactly, leaf by leaf, and a drift is reported by its dotted path;
  a section of rows is matched on its ``key`` fields, so the subset of
  cases a ``--quick`` run covers is compared and the rest is skipped;
* fields named in the bench's ``timings`` measure the host and are
  skipped wherever they occur; sections not declared are all host
  numbers and never compared;
* a ``same_mode`` section depends on the run size, so it is compared
  only when the fresh run has the committed report's ``quick`` flag
  (serve and fleet run in virtual time: checked in full mode their
  whole report must reproduce);
* every gate must hold on the fresh run.

``make bench-check`` does this for all eight committed files and ``make
bench-json`` regenerates them.  To migrate a file after an envelope
change, rename its keys with a throw-away script and run ``--check`` on
the result: measured values are never edited by hand, only re-measured.
Timed comparisons go through :func:`interleaved` so that host drift
lands on every alternative equally.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.nn import parallel

__all__ = [
    "BENCHES",
    "Bench",
    "Section",
    "check_file",
    "check_report",
    "interleaved",
    "interleaved_medians",
    "load",
    "main",
    "paired_rates",
    "parent_commit",
    "parent_vs_change",
    "run_report",
    "write_report",
]

#: The registered bench modules; ``BENCH_<name>.json`` is committed for each.
BENCHES = (
    "engine", "planner", "exact", "sim", "serve", "batch", "fleet", "transport",
)


@dataclass(frozen=True)
class Section:
    """One deterministic section of a report.  ``key`` names the fields
    identifying a row when the section is a list of rows; ``same_mode``
    marks a section whose values depend on ``--quick``."""

    name: str
    key: Tuple[str, ...] = ()
    same_mode: bool = False


@dataclass(frozen=True)
class Bench:
    """What a bench module declares.  ``run(quick=, seed=, **extras)``
    returns ``(sections, gates)``; ``extras`` maps each per-bench flag to
    its ``argparse`` keywords; ``reads_committed`` additionally passes
    the committed report (``committed=``) for runs that carry part of it
    over."""

    name: str
    run: Callable[..., Tuple[Dict[str, Any], Dict[str, bool]]]
    deterministic: Tuple[Section, ...]
    timings: Tuple[str, ...] = ()
    extras: Mapping[str, Dict[str, Any]] = field(default_factory=dict)
    reads_committed: bool = False


def load(name: str) -> Bench:
    """The :class:`Bench` declared by ``repro.bench.<name>``."""
    if name not in BENCHES:
        raise ValueError(f"unknown bench {name!r}; registered: {', '.join(BENCHES)}")
    return importlib.import_module(f"repro.bench.{name}").BENCH


# -- protocol ----------------------------------------------------------------
def interleaved(thunks: "Sequence[Callable[[], Any]]", repeats: int) -> "List[list]":
    """Call every thunk once per round for ``repeats`` rounds (``a b a
    b``, never ``a a b b``) and return what each returned, per thunk."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    samples: "List[list]" = [[] for _ in thunks]
    for _ in range(repeats):
        for seen, thunk in zip(samples, thunks):
            seen.append(thunk())
    return samples


def interleaved_medians(
    thunks: "Sequence[Callable[[], Any]]", repeats: int
) -> "List[float]":
    """Median wall seconds per thunk over interleaved rounds."""

    def seconds(thunk: "Callable[[], Any]") -> float:
        start = time.perf_counter()
        thunk()
        return time.perf_counter() - start

    timed = [lambda thunk=thunk: seconds(thunk) for thunk in thunks]
    return [statistics.median(seen) for seen in interleaved(timed, repeats)]


#: One ``parent_vs_change`` measurement: a fresh interpreter runs a bench
#: file by path, so its function meets whichever ``repro`` is on PYTHONPATH.
_MEASURE = (
    "import json, runpy, sys; path, func, *args = sys.argv[1:]; "
    "print(json.dumps(runpy.run_path(path)[func](*map(json.loads, args))))"
)


def parent_commit(parent_src: str) -> str:
    """The commit a parent checkout's ``src`` is at (its path when it is
    not a checkout) — what a ``before_after`` section names it by."""
    try:
        return subprocess.run(
            ["git", "-C", os.path.abspath(parent_src), "rev-parse", "HEAD"],
            check=True, capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return parent_src


def parent_vs_change(
    parent_src: str,
    bench_file: str,
    func: str,
    args: "Sequence[Any]",
    rounds: int,
    agree: "Sequence[str]" = (),
) -> "Dict[str, List[dict]]":
    """What ``func(*args)`` of ``bench_file`` measures at a parent
    checkout's ``src`` and at this one: the returned dicts, per side.

    Each measurement is a fresh interpreter running *this checkout's*
    ``bench_file`` with one of the two ``src`` directories on
    ``PYTHONPATH`` — ``func`` may only use API both sides have, takes
    JSON-able ``args`` and returns a JSON-able dict — parent and change
    alternating through :func:`interleaved`.  The fields named in
    ``agree`` are what the program decides, not how fast: every run of
    both sides must return the same values for them.
    """
    sides = {
        "parent": os.path.abspath(parent_src),
        "change": str(Path(__file__).resolve().parents[2]),  # .../src
    }

    def measure(side: str) -> dict:
        out = subprocess.run(
            [sys.executable, "-c", _MEASURE, os.path.abspath(bench_file), func,
             *map(json.dumps, args)],
            env=dict(os.environ, PYTHONPATH=sides[side]),
            check=True, capture_output=True, text=True,
        ).stdout
        return json.loads(out.splitlines()[-1])

    runs = interleaved([lambda side=side: measure(side) for side in sides], rounds)
    decided = {tuple(m[name] for name in agree) for seen in runs for m in seen}
    if len(decided) != 1:
        raise RuntimeError(
            f"{func}{tuple(args)}: parent and change disagree on {tuple(agree)}: "
            f"{sorted(decided)}"
        )
    return dict(zip(sides, runs))


def paired_rates(
    runs: "Mapping[str, Sequence[dict]]", metric: str
) -> "Tuple[float, float, int]":
    """Of :func:`parent_vs_change` runs, for a higher-is-better
    ``metric``: the parent's median, the change's median and in how many
    rounds the change was ahead."""
    before = [m[metric] for m in runs["parent"]]
    after = [m[metric] for m in runs["change"]]
    wins = sum(c > p for p, c in zip(before, after))
    return statistics.median(before), statistics.median(after), wins


# -- envelope ----------------------------------------------------------------
def run_report(
    bench: Bench,
    quick: bool = False,
    seed: int = 0,
    committed: "Optional[dict]" = None,
    **extras: Any,
) -> "Dict[str, Any]":
    """Run ``bench`` and wrap its sections and gates in the envelope."""
    if bench.reads_committed:
        extras["committed"] = committed
    sections, gates = bench.run(quick=quick, seed=seed, **extras)
    gates = {name: bool(ok) for name, ok in gates.items()}
    meta = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "threads": parallel.configured_threads(),
    }
    return {
        "bench": bench.name, "quick": bool(quick), "meta": meta,
        **sections, "gates": gates, "pass": all(gates.values()),
    }


def write_report(report: "Mapping[str, Any]", path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


# -- check -------------------------------------------------------------------
def _drifts(path: str, want: Any, got: Any, timings, errors: "List[str]") -> None:
    if isinstance(want, dict) and isinstance(got, dict):
        for name, value in want.items():
            if name not in timings:
                _drifts(f"{path}.{name}", value, got.get(name), timings, errors)
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            _drifts(f"{path}[{i}]", w, g, timings, errors)
    elif want != got:
        errors.append(f"{path}: committed {want!r} != fresh {got!r}")


def check_report(
    committed: "Mapping[str, Any]",
    fresh: "Mapping[str, Any]",
    deterministic: "Sequence[Section]",
    timings: "Sequence[str]" = (),
) -> "List[str]":
    """Every way ``fresh`` fails to reproduce ``committed`` (see the
    module docstring for the rules); empty when it does."""
    same_mode = committed["quick"] == fresh["quick"]
    errors: "List[str]" = []
    for section in deterministic:
        if section.same_mode and not same_mode:
            continue
        want, got = committed[section.name], fresh[section.name]
        if not section.key:
            _drifts(section.name, want, got, timings, errors)
            continue
        rows = {tuple(row[k] for k in section.key): row for row in got}
        for row in want:
            case = tuple(row[k] for k in section.key)
            label = f"{section.name}[{'/'.join(map(str, case))}]"
            if case in rows:
                _drifts(label, row, rows[case], timings, errors)
            elif same_mode:
                errors.append(f"{label}: missing from the fresh run")
    errors += [
        f"gates.{name}: fails on the fresh run"
        for name, ok in fresh["gates"].items()
        if not ok
    ]
    return errors


def check_file(
    bench: Bench, path: str, quick: bool = False, seed: int = 0, **extras: Any
) -> "List[str]":
    """``--check``: run ``bench`` afresh against the report at ``path``."""
    with open(path) as handle:
        committed = json.load(handle)
    fresh = run_report(bench, quick, seed, committed, **extras)
    fresh = json.loads(json.dumps(fresh))  # compare what would be written
    return check_report(committed, fresh, bench.deterministic, bench.timings)


# -- front door --------------------------------------------------------------
def main(bench: Bench, argv: "Optional[Sequence[str]]" = None) -> int:
    """``python -m repro.bench.<name>``: run, then write or ``--check``."""
    default_out = f"BENCH_{bench.name}.json"
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.bench.{bench.name}",
        description=sys.modules[bench.run.__module__].__doc__.splitlines()[0],
    )
    parser.add_argument("--quick", action="store_true",
                        help="the small configuration (CI smoke)")
    parser.add_argument("--out", default=default_out,
                        help="output JSON path ('' = don't write)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--check", metavar="PATH",
        help="write nothing: re-run and fail if a deterministic field of "
        "the committed report at PATH drifted or a gate fails (with "
        "--quick: the fields a quick run can reproduce)",
    )
    for flag, keywords in bench.extras.items():
        parser.add_argument(flag, **keywords)
    options = vars(parser.parse_args(argv))
    quick, out, seed, check = (
        options.pop(name) for name in ("quick", "out", "seed", "check")
    )
    if check:
        errors = check_file(bench, check, quick, seed, **options)
        for error in errors:
            print(f"DRIFT: {error}", file=sys.stderr)
        if not errors:
            print(f"{check}: committed report reproduces")
        return 1 if errors else 0
    committed = None
    if bench.reads_committed:
        with open(default_out) as handle:
            committed = json.load(handle)
    report = run_report(bench, quick, seed, committed, **options)
    if out:
        write_report(report, out)
        print(f"wrote {out}")
    print("PASS" if report["pass"] else f"FAIL: {report['gates']}")
    return 0 if report["pass"] else 1
