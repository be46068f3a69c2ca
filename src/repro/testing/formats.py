"""The test side of the formats production writes: one framed message
sent by hand (the wire format of :mod:`repro.runtime.transport`), and
a JSONL trace read back (what :func:`repro.runtime.trace.dump_jsonl`
writes)."""

from __future__ import annotations

import json
import socket
from typing import Any, List

from repro.runtime.trace import TraceEvent
from repro.runtime.transport import encode_parts, send_parts

__all__ = ["load_jsonl", "send_message"]


def send_message(sock: socket.socket, message: Any) -> None:
    """Serialise and send one framed message."""
    parts, total = encode_parts(message)
    send_parts(sock, parts, total)


def load_jsonl(path: str) -> "List[TraceEvent]":
    with open(path) as handle:
        return [TraceEvent(**json.loads(line)) for line in handle if line.strip()]
