"""Kernel-level error types."""

from __future__ import annotations


class KernelError(Exception):
    """Base class for OS-level errors."""


class FileError(KernelError):
    """An errno-style file system failure."""

    def __init__(self, errno: str, message: str):
        super().__init__(f"[{errno}] {message}")
        self.errno = errno


class StaleGenerationError(FileError):
    """Access through a descriptor whose file generation is stale.

    Raised after a cell failure discarded dirty pages of a file that this
    descriptor had open: "Only processes that opened the file before the
    failure will receive I/O errors" (Section 4.2).
    """

    def __init__(self, path: str, opened_gen: int, current_gen: int):
        super().__init__(
            "EIO",
            f"{path}: opened at generation {opened_gen}, file now at "
            f"{current_gen} after dirty-page discard",
        )
        self.path = path
        self.opened_gen = opened_gen
        self.current_gen = current_gen


class BadAddressError(KernelError):
    """A virtual address did not resolve in the faulting address space."""

    def __init__(self, vpn: int):
        super().__init__(f"segmentation violation at virtual page {vpn}")
        self.vpn = vpn


class ProcessKilled(KernelError):
    """Delivered into a thread whose process was killed (cell failure,
    signal, or resource revocation)."""

    def __init__(self, pid: int, reason: str):
        super().__init__(f"process {pid} killed: {reason}")
        self.pid = pid
        self.reason = reason


class CellFailedError(KernelError):
    """An intercell operation observed that the peer cell has failed."""

    def __init__(self, cell_id: int, detail: str = ""):
        super().__init__(f"cell {cell_id} failed {detail}".rstrip())
        self.cell_id = cell_id


class RpcTimeout(CellFailedError):
    """An RPC to another cell timed out — a failure *hint* (Section 4.3)."""

    def __init__(self, cell_id: int, op: str):
        super().__init__(cell_id, f"(RPC {op!r} timed out)")
        self.op = op


class CarefulReferenceFault(KernelError):
    """A careful-reference check failed while reading a remote cell.

    Carries which check tripped; a failed check is a failure hint for the
    remote cell, not an error in the reading cell.
    """

    def __init__(self, remote_cell: int, check: str, detail: str = ""):
        super().__init__(
            f"careful reference to cell {remote_cell} failed {check} check"
            + (f": {detail}" if detail else "")
        )
        self.remote_cell = remote_cell
        self.check = check
