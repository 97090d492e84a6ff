"""Serve one argv through ``chainisom.cli.main`` in-process and check its output.

Standard output goes to :class:`StreamSink`, which hashes and counts it in
bounded chunks, so a 10 MB enumeration costs the harness neither memory nor
a copy of the output.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass

CHUNK_CHARS = 1 << 16
TAIL_CHARS = 256


class StreamSink:
    """Write-only text stream: sha256, byte count, line count and a short tail."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self._parts: list[str] = []
        self._pending = 0
        self.bytes = 0
        self.lines = 0
        self.tail = ""

    def write(self, text: str) -> int:
        self._parts.append(text)
        self._pending += len(text)
        if self._pending >= CHUNK_CHARS:
            self._drain()
        return len(text)

    def flush(self) -> None:
        pass

    def _drain(self) -> None:
        text = "".join(self._parts)
        self._parts.clear()
        self._pending = 0
        data = text.encode()
        self._hash.update(data)
        self.bytes += len(data)
        self.lines += text.count("\n")
        self.tail = (self.tail + text)[-TAIL_CHARS:]

    def finish(self) -> str:
        """Drain what is buffered and return the hex digest."""
        self._drain()
        return self._hash.hexdigest()


@dataclass
class Outcome:
    seconds: float
    exit_code: int | None
    error: str | None
    sha256: str
    stdout_bytes: int
    lines: int
    tail: str
    stderr_tail: str


def serve(main, argv) -> Outcome:
    """Run ``main(argv)`` with stdout and stderr captured; time the call only."""
    out, err = StreamSink(), StreamSink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    code, error = None, None
    start = time.perf_counter()
    try:
        code = main(list(argv))
    except Exception as exc:  # a raising request is a failed request, not a crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
    digest = out.finish()
    err.finish()
    return Outcome(seconds, code, error, digest, out.bytes, out.lines, out.tail, err.tail)


def failure(request, outcome: Outcome, golden: dict[str, str]) -> str | None:
    """Why ``outcome`` is wrong for ``request``, or None when it is right."""
    if outcome.error is not None:
        return f"raised {outcome.error}"
    if outcome.exit_code != 0:
        return f"exit code {outcome.exit_code}: {outcome.stderr_tail.strip()}"
    kind = request.check[0]
    if kind == "lines":
        if outcome.lines != request.check[1]:
            return f"{outcome.lines} lines, closed form says {request.check[1]}"
    elif kind == "pass":
        last = outcome.tail.rstrip("\n").rpartition("\n")[2]
        if last != "PASS":
            return f"last line {last!r}, expected 'PASS'"
    elif outcome.sha256 != golden[request.check[1]]:
        return f"stdout sha256 differs from the digest recorded for {request.check[1]!r}"
    return None
