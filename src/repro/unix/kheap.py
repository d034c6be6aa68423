"""Typed kernel heap: simulated addresses and allocator type tags.

Careful reference (Section 4.1) validates remote pointers by "reading a
structure type identifier.  The type identifier is written by the memory
allocator and removed by the memory deallocator."  To make that protocol
real, every kernel structure that can be referenced across cells is
allocated from a :class:`KernelHeap`: the allocator assigns it a simulated
physical address inside the owning kernel's reserved memory and records a
type tag keyed by that address; deallocation erases the tag.

Cross-cell kernel pointers are stored as raw integer addresses (exactly the
representation a C kernel would use), so fault injection can corrupt them
into any of the pathological shapes the paper tested: "to address random
physical addresses in the same cell or other cells, to point one word away
from the original address, and to point back at the data structure itself."
The careful-reference checks then fire on the same conditions the real
system checked: misalignment, wrong memory range, missing/mismatched tag.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: allocation slot granularity; also the alignment every valid kernel
#: structure address satisfies.
KOBJ_ALIGN = 128


class KObject:
    """Base class for kernel structures allocated from a kernel heap.

    ``kaddr`` is the structure's simulated physical address (0 until
    allocated), ``ktype`` its allocator tag.
    """

    __slots__ = ("kaddr", "ktype")

    def __init__(self):
        self.kaddr = 0
        self.ktype = ""


class KernelHeap:
    """Allocator for one kernel's internal data region.

    The region is a physically contiguous range inside the cell's first
    node ("OS internal data" in Figure 3.1), so the careful-reference
    range check "addresses the memory range belonging to the expected
    cell" is a simple bounds test.
    """

    def __init__(self, cell_id: int, base_addr: int, size: int):
        if base_addr % KOBJ_ALIGN:
            raise ValueError("heap base must be slot aligned")
        self.cell_id = cell_id
        self.base = base_addr
        self.size = size
        self.limit = base_addr + size
        self._next = base_addr
        self._free: List[int] = []
        self._objects: Dict[int, KObject] = {}
        self.allocs = 0
        self.frees = 0

    # -- allocation ------------------------------------------------------

    def alloc(self, obj: KObject, ktype: str) -> int:
        """Give ``obj`` an address and record its type tag."""
        if obj.kaddr:
            raise ValueError(f"object already allocated at {obj.kaddr:#x}")
        if self._free:
            addr = self._free.pop()
        else:
            addr = self._next
            if addr + KOBJ_ALIGN > self.limit:
                raise MemoryError(
                    f"kernel heap of cell {self.cell_id} exhausted "
                    f"({self.allocs - self.frees} live objects)"
                )
            self._next += KOBJ_ALIGN
        obj.kaddr = addr
        obj.ktype = ktype
        self._objects[addr] = obj
        self.allocs += 1
        return addr

    def free(self, obj: KObject) -> None:
        """Remove the type tag (a later resolve of this address fails)."""
        entry = self._objects.pop(obj.kaddr, None)
        if entry is None:
            raise ValueError(f"free of unallocated address {obj.kaddr:#x}")
        self._free.append(obj.kaddr)
        self.frees += 1
        obj.kaddr = 0
        obj.ktype = ""

    # -- resolution (used by careful reference) ----------------------------

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.limit

    def resolve(self, addr: int) -> Optional[Tuple[str, KObject]]:
        """Look up the tag and object at ``addr``; None if untagged.

        An untagged address models reading freed or never-allocated kernel
        memory — the data read would be garbage, which the type-tag check
        catches.
        """
        obj = self._objects.get(addr)
        return None if obj is None else (obj.ktype, obj)

    @property
    def live_objects(self) -> int:
        return len(self._objects)
