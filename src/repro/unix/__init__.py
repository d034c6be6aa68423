"""IRIX-like UNIX kernel substrate.

The Hive prototype "is based on and remains binary compatible with IRIX
5.2".  This package implements the IRIX structures the paper describes so
the Hive extensions are modifications of real code rather than stubs:

* the **pfdat** page-frame table and hash (Section 5.1) —
  :mod:`repro.unix.pfdat`;
* the **vnode** file-system interface, a disk file system with a unified
  page cache, and file generation numbers — :mod:`repro.unix.fs`;
* **copy-on-write trees** for anonymous memory (Section 5.3, "similar to
  the MACH approach") — :mod:`repro.unix.cow`;
* address spaces, regions and the page-fault path —
  :mod:`repro.unix.address_space`;
* processes, threads, file descriptors, signals, and a per-kernel
  scheduler — :mod:`repro.unix.process`, :mod:`repro.unix.sched`;
* a typed **kernel heap** that gives every kernel structure a simulated
  physical address and an allocator-maintained type tag — the substrate
  the careful reference protocol (Section 4.1) validates against —
  :mod:`repro.unix.kheap`;
* the assembled single-kernel OS — :mod:`repro.unix.kernel` — which boots
  either as the IRIX baseline (one kernel owning the whole machine) or as
  one Hive cell (owning a node range, extended by :mod:`repro.core`).
"""

from repro.unix.errors import (
    BadAddressError,
    FileError,
    StaleGenerationError,
)
from repro.unix.kernel import LocalKernel

__all__ = [
    "BadAddressError",
    "FileError",
    "LocalKernel",
    "StaleGenerationError",
]
