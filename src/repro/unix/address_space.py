"""Address spaces, regions, and page-table/TLB state.

A process address space is a list of :class:`Region` objects plus per-cell
page-table state.  The page tables are keyed by cell because a Hive
*spanning task* runs component processes on several cells that share one
logical address space (Section 3.2): each cell maintains its own hardware
mappings, and recovery removes exactly the remote ones.

Regions are kernel-heap objects, and an anonymous region refers to its
copy-on-write leaf *by kernel address* — this is the "pointer in the
process address map" that the Table 7.4 software fault injections corrupt.
File regions snapshot the file's generation number at map time, giving the
address-space half of the Section 4.2 discard error semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.unix.errors import BadAddressError
from repro.unix.kheap import KObject

REGION_TAG = "region"
ASPACE_TAG = "aspace"

FILE_REGION = "file"
ANON_REGION = "anon"


@dataclass
class Pte:
    """One page-table entry: virtual page -> physical frame."""

    frame: int
    writable: bool
    #: the pfdat (regular or extended) backing this mapping, owned by the
    #: mapping cell
    pfdat: object = None
    #: data home of the page (for remote-mapping cleanup in recovery)
    data_home: int = -1


class Region(KObject):
    """A contiguous mapped range of an address space."""

    __slots__ = (
        "start_vpn", "npages", "kind", "writable", "shared",
        # file regions
        "fs_id", "ino", "data_home", "file_page_base", "generation",
        # anonymous regions: kernel address of the COW leaf + owner hint
        "cow_leaf_addr", "cow_leaf_cell",
        # spanning-task shared segments (Hive): which task and which of
        # its shared segments this region views
        "task_id", "share_key",
    )

    def __init__(self, start_vpn: int, npages: int, kind: str,
                 writable: bool, shared: bool = False):
        super().__init__()
        if npages <= 0:
            raise ValueError("region must span at least one page")
        self.start_vpn = start_vpn
        self.npages = npages
        self.kind = kind
        self.writable = writable
        self.shared = shared
        self.fs_id = -1
        self.ino = -1
        self.data_home = -1
        self.file_page_base = 0
        self.generation = 0
        self.cow_leaf_addr = 0
        self.cow_leaf_cell = -1
        self.task_id = None
        self.share_key = 0

    @property
    def end_vpn(self) -> int:
        return self.start_vpn + self.npages

    def contains(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.end_vpn

    def file_page_index(self, vpn: int) -> int:
        return self.file_page_base + (vpn - self.start_vpn)


class AddressSpace(KObject):
    """The address map of a process (or of a spanning task).

    ``ptes[cell_id]`` holds the hardware mappings established by that
    cell's component process.  Single-cell processes only ever populate
    one entry.
    """

    def __init__(self, home_cell: int):
        super().__init__()
        self.home_cell = home_cell
        self.regions: List[Region] = []
        self.ptes: Dict[int, Dict[int, Pte]] = {}
        self._next_vpn = 0x1000  # leave a null-page guard region
        self.refcount = 1        # component processes sharing this space

    # -- region management -------------------------------------------------

    def allocate_range(self, npages: int) -> int:
        """Pick an unused virtual range (simple bump allocation)."""
        start = self._next_vpn
        self._next_vpn += npages + 16  # guard gap
        return start

    def add_region(self, region: Region) -> Region:
        for existing in self.regions:
            if (region.start_vpn < existing.end_vpn
                    and existing.start_vpn < region.end_vpn):
                raise ValueError(
                    f"region overlap: {region} vs {existing}"
                )
        self.regions.append(region)
        return region

    def region_for(self, vpn: int) -> Region:
        for region in self.regions:
            if region.contains(vpn):
                return region
        raise BadAddressError(vpn)

    # -- page tables ----------------------------------------------------------

    def pte_map(self, cell_id: int) -> Dict[int, Pte]:
        m = self.ptes.get(cell_id)
        if m is None:
            m = {}
            self.ptes[cell_id] = m
        return m

    def lookup_pte(self, cell_id: int, vpn: int) -> Optional[Pte]:
        return self.ptes.get(cell_id, {}).get(vpn)

    def map_page(self, cell_id: int, vpn: int, pte: Pte) -> None:
        self.pte_map(cell_id)[vpn] = pte

    def unmap_page(self, cell_id: int, vpn: int) -> Optional[Pte]:
        return self.ptes.get(cell_id, {}).pop(vpn, None)

    def unmap_all(self, cell_id: int) -> List[Tuple[int, Pte]]:
        m = self.ptes.pop(cell_id, {})
        return list(m.items())

    def remote_mappings(self, cell_id: int) -> List[Tuple[int, Pte]]:
        """Mappings established by ``cell_id`` to pages homed elsewhere.

        Recovery removes exactly these ("all remote mappings are removed
        during recovery", Section 4.2) so future accesses refault and are
        checked at the data home.
        """
        out = []
        for vpn, pte in self.ptes.get(cell_id, {}).items():
            if pte.data_home not in (-1, cell_id):
                out.append((vpn, pte))
        return out

    def mapped_count(self, cell_id: int) -> int:
        return len(self.ptes.get(cell_id, {}))
