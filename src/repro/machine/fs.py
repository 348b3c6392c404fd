"""Simulated I/O environment of a machine: file system, stdin script,
captured stdout/stderr.

The mobile device owns the real environment; the server sees I/O only
through the remote I/O manager (paper, Section 3.4).  Keeping the
environment an explicit object makes "remote" I/O a matter of routing calls
to the *mobile* environment and charging network cost.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class GuestOutput:
    """What a program did, as far as its user can tell: two executions
    are the same execution exactly when these four are equal.  It is the
    oracle "offloaded equals phone-only" is checked with (paper,
    Sections 3.2 and 3.4)."""

    exit_code: int
    stdout: bytes
    stderr: bytes
    files: Dict[str, bytes]     # final contents of the file system

    def differences(self, other: "GuestOutput") -> List[str]:
        """The components ``other`` differs in, by name: ``exit code``,
        ``stdout``, ``stderr``, ``files: <path>``; [] when equal."""
        names = [name for name, mine, theirs in (
            ("exit code", self.exit_code, other.exit_code),
            ("stdout", self.stdout, other.stdout),
            ("stderr", self.stderr, other.stderr)) if mine != theirs]
        return names + [
            f"files: {path}"
            for path in sorted(self.files.keys() | other.files.keys())
            if self.files.get(path) != other.files.get(path)]


class SimFile:
    """An open file: a byte buffer plus a cursor."""

    def __init__(self, path: str, data: bytearray, writable: bool,
                 append: bool = False):
        self.path = path
        self.data = data
        self.writable = writable
        self.pos = len(data) if append else 0
        self.closed = False

    def read(self, size: int) -> bytes:
        chunk = bytes(self.data[self.pos:self.pos + size])
        self.pos += len(chunk)
        return chunk

    def read_line(self, limit: int) -> bytes:
        end = self.data.find(b"\n", self.pos, self.pos + limit - 1)
        if end < 0:
            return self.read(limit - 1)
        return self.read(end - self.pos + 1)

    def write(self, data: bytes) -> int:
        if not self.writable:
            return 0
        end = self.pos + len(data)
        if end > len(self.data):
            self.data.extend(b"\x00" * (end - len(self.data)))
        self.data[self.pos:end] = data
        self.pos = end
        return len(data)

    @property
    def at_eof(self) -> bool:
        return self.pos >= len(self.data)


class IOEnvironment:
    """File system + standard streams for one machine."""

    def __init__(self, files: Optional[Dict[str, bytes]] = None,
                 stdin: bytes = b""):
        self.files: Dict[str, bytearray] = {
            path: bytearray(data) for path, data in (files or {}).items()}
        self.stdin = io.BytesIO(stdin)
        self.stdout = bytearray()
        self.stderr = bytearray()
        self.open_files: Dict[int, SimFile] = {}
        self._next_handle = 16  # 0-2 reserved for stdio, keep a gap
        # Counter for the evaluation harness.
        self.stdout_ops = 0

    # -- files ----------------------------------------------------------
    def open(self, path: str, mode: str) -> int:
        """Returns a handle (>0) or 0 on failure, like fopen's NULL."""
        writable = any(m in mode for m in ("w", "a", "+"))
        if "r" in mode and path not in self.files:
            return 0    # "r" and "r+" never create
        if "w" in mode:
            self.files[path] = bytearray()
        elif path not in self.files:
            self.files[path] = bytearray()
        handle = self._next_handle
        self._next_handle += 1
        self.open_files[handle] = SimFile(
            path, self.files[path], writable or "a" in mode,
            append="a" in mode)
        return handle

    def file(self, handle: int) -> Optional[SimFile]:
        return self.open_files.get(handle)

    def close(self, handle: int) -> int:
        f = self.open_files.pop(handle, None)
        if f is None:
            return -1
        f.closed = True
        return 0

    # -- transactional snapshots ---------------------------------------
    def snapshot(self) -> dict:
        """Capture everything a remote-I/O burst can mutate: file
        contents, open-handle cursors, stream buffers and counters.

        The offload runtime snapshots the mobile environment before a
        risky (fault-injected) invocation so a mid-invocation abort can
        roll every observable effect back before the local replay
        (docs/fault-model.md, "Fallback semantics").
        """
        files = {path: bytes(data) for path, data in self.files.items()}
        handles = {}
        for handle, f in self.open_files.items():
            shared = f.data is self.files.get(f.path)
            handles[handle] = (f.path, f.pos, f.writable, f.closed,
                               shared, None if shared else bytes(f.data))
        return {
            "files": files,
            "handles": handles,
            "stdout_len": len(self.stdout),
            "stderr_len": len(self.stderr),
            "stdin_pos": self.stdin.tell(),
            "next_handle": self._next_handle,
            "stdout_ops": self.stdout_ops,
        }

    def restore(self, snap: dict) -> None:
        """Roll back to a :meth:`snapshot` state."""
        self.files = {path: bytearray(data)
                      for path, data in snap["files"].items()}
        self.open_files = {}
        for handle, (path, pos, writable, closed, shared,
                     detached) in snap["handles"].items():
            if shared and path in self.files:
                buffer = self.files[path]
            else:
                buffer = bytearray(detached or b"")
            f = SimFile(path, buffer, writable)
            f.pos = pos
            f.closed = closed
            self.open_files[handle] = f
        del self.stdout[snap["stdout_len"]:]
        del self.stderr[snap["stderr_len"]:]
        self.stdin.seek(snap["stdin_pos"])
        self._next_handle = snap["next_handle"]
        self.stdout_ops = snap["stdout_ops"]

    # -- standard streams ---------------------------------------------------
    def write_stdout(self, data: bytes) -> None:
        self.stdout_ops += 1
        self.stdout.extend(data)

    def write_stderr(self, data: bytes) -> None:
        self.stderr.extend(data)

    def write_std(self, handle: int, data: bytes) -> None:
        """Write to a handle that is not an open file: handles 1/2
        behave as stdout/stderr, anything else falls to stdout."""
        if handle == 2:
            self.write_stderr(data)
        else:
            self.write_stdout(data)

    def read_stdin(self, size: int) -> bytes:
        return self.stdin.read(size)

    def output(self, exit_code: int) -> GuestOutput:
        """The outcome of the program that just exited with
        ``exit_code`` in this environment."""
        return GuestOutput(
            exit_code, bytes(self.stdout), bytes(self.stderr),
            {path: bytes(data) for path, data in self.files.items()})
