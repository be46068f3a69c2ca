"""Benchmark harnesses (JSON-emitting, no pytest dependency); the
protocol, report envelope, ``--check`` and CLI they share live in
:mod:`repro.bench.common`."""
