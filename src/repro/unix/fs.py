"""Vnode file system with an on-disk block store and generation numbers.

The structure follows the IRIX design the paper describes (Section 5.1):
the virtual memory system consults the pfdat hash table first, and on a
miss invokes "the read operation of the vnode object provided by the file
system to represent that file.  The file system allocates a page frame,
fills it with the requested data, and inserts it in the pfdat hash table."

Generation numbers implement the relaxed error semantics of Section 4.2:
"a generation number, maintained by the file system, ... is copied into
the file descriptor or address space map of a process when it opens the
file.  When a dirty page of a file is discarded, the file's generation
number is incremented.  An access via a file descriptor or address space
region with a mismatched generation number generates an error."

The on-disk store holds real bytes, so after a discard a re-opened file
reads *stale but uncorrupted* data from disk — exactly the paper's
crash-equivalent semantics — and the evaluation harness can diff workload
output files against reference copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List

from repro.hardware.disk import Disk
from repro.unix.errors import FileError

PAGE = 4096


@dataclass
class Inode:
    """On-disk file metadata."""

    ino: int
    path: str
    is_dir: bool = False
    size: int = 0
    #: logical page index -> disk block number (allocated lazily)
    blocks: Dict[int, int] = field(default_factory=dict)
    #: incremented whenever a dirty page of the file is discarded
    generation: int = 0
    nlink: int = 1

    @property
    def npages(self) -> int:
        return (self.size + PAGE - 1) // PAGE


class DiskFileSystem:
    """One local file system on one disk.

    The *platter* is a dict of block number -> page bytes; blocks are
    allocated by a bump allocator.  Directory structure is a sorted path
    namespace with implicit parents (enough for the paper's workloads,
    which use a handful of directories such as ``/tmp``).
    """

    def __init__(self, sim, fs_id: int, disk: Disk, home_cell: int):
        self.sim = sim
        self.fs_id = fs_id
        self.disk = disk
        self.home_cell = home_cell
        self._inodes: Dict[int, Inode] = {}
        self._namespace: Dict[str, int] = {}
        self._next_ino = 2
        self._next_block = 16            # leave room for a superblock
        self._platter: Dict[int, bytes] = {}
        self.disk_reads = 0
        self.disk_writes = 0
        self._make_root()

    def _make_root(self) -> None:
        root = Inode(ino=1, path="/", is_dir=True)
        self._inodes[1] = root
        self._namespace["/"] = 1

    # -- namespace -------------------------------------------------------

    @staticmethod
    def _normalize(path: str) -> str:
        if not path.startswith("/"):
            raise FileError("EINVAL", f"path must be absolute: {path!r}")
        while "//" in path:
            path = path.replace("//", "/")
        if len(path) > 1 and path.endswith("/"):
            path = path[:-1]
        return path

    def lookup(self, path: str) -> Inode:
        path = self._normalize(path)
        ino = self._namespace.get(path)
        if ino is None:
            raise FileError("ENOENT", f"no such file: {path}")
        return self._inodes[ino]

    def exists(self, path: str) -> bool:
        return self._normalize(path) in self._namespace

    def create(self, path: str, is_dir: bool = False) -> Inode:
        path = self._normalize(path)
        if path in self._namespace:
            raise FileError("EEXIST", f"exists: {path}")
        # Implicit mkdir -p of parents.
        parent = path.rsplit("/", 1)[0] or "/"
        if parent not in self._namespace:
            self.create(parent, is_dir=True)
        elif not self._inodes[self._namespace[parent]].is_dir:
            raise FileError("ENOTDIR", f"{parent} is not a directory")
        inode = Inode(ino=self._next_ino, path=path, is_dir=is_dir)
        self._next_ino += 1
        self._inodes[inode.ino] = inode
        self._namespace[path] = inode.ino
        return inode

    def unlink(self, path: str) -> Inode:
        path = self._normalize(path)
        inode = self.lookup(path)
        if inode.is_dir:
            children = [p for p in self._namespace
                        if p != path and p.startswith(path.rstrip("/") + "/")]
            if children:
                raise FileError("ENOTEMPTY", f"{path} is not empty")
        del self._namespace[path]
        inode.nlink -= 1
        if inode.nlink == 0:
            for block in inode.blocks.values():
                self._platter.pop(block, None)
            del self._inodes[inode.ino]
        return inode

    def listdir(self, path: str) -> List[str]:
        path = self._normalize(path)
        self.lookup(path)
        prefix = path.rstrip("/") + "/"
        out = []
        for p in self._namespace:
            if p.startswith(prefix) and "/" not in p[len(prefix):]:
                out.append(p)
        return sorted(out)

    def inode(self, ino: int) -> Inode:
        inode = self._inodes.get(ino)
        if inode is None:
            raise FileError("ESTALE", f"stale inode {ino}")
        return inode

    # -- block I/O -----------------------------------------------------------
    #
    # These are coroutines: they charge real (simulated) disk latency.

    def _block_for(self, inode: Inode, page_index: int) -> int:
        block = inode.blocks.get(page_index)
        if block is None:
            block = self._next_block
            self._next_block += 8  # pages are 8 disk sectors
            inode.blocks[page_index] = block
        return block

    def read_page_from_disk(self, inode: Inode,
                            page_index: int) -> Generator:
        """Read one file page from the platter; returns the bytes."""
        block = self._block_for(inode, page_index)
        yield from self.disk.read(block, PAGE)
        self.disk_reads += 1
        return self._platter.get(block, b"\x00" * PAGE)

    def write_page_to_disk(self, inode: Inode, page_index: int,
                           data: bytes) -> Generator:
        """Write one file page to the platter (stable storage)."""
        if len(data) != PAGE:
            raise ValueError("disk writes are whole pages")
        block = self._block_for(inode, page_index)
        yield from self.disk.write(block, PAGE)
        self.disk_writes += 1
        self._platter[block] = bytes(data)
        return None

    def peek_disk_page(self, inode: Inode, page_index: int) -> bytes:
        """Harness-only: what is currently on the platter (no latency)."""
        block = inode.blocks.get(page_index)
        if block is None:
            return b"\x00" * PAGE
        return self._platter.get(block, b"\x00" * PAGE)

    # -- generation numbers ----------------------------------------------------

    def bump_generation(self, inode: Inode) -> int:
        """Record that a dirty page of this file was lost (Section 4.2)."""
        inode.generation += 1
        return inode.generation
