"""Copy-on-write trees for anonymous memory (Section 5.3).

Anonymous pages are managed in copy-on-write trees (the paper notes the
approach is similar to Mach's).  A page written by a process is recorded
at the process's current *leaf* node.  On fork the leaf splits: two fresh
leaves are created with the old leaf as their parent, one assigned to the
parent process and one to the child, so pages written after the fork are
private while pages written before remain visible to both.  A fault
searches *up* the tree for the nearest ancestor that recorded the page.

In Hive the parent and child may live on different cells, so the tree's
parent pointers can cross cell boundaries.  Pointers are therefore stored
as raw kernel addresses (``parent_addr``) plus a hint of the owning cell;
remote hops are resolved through the careful reference protocol by the
Hive layer.  "This does not create a wild write vulnerability because the
lookup algorithms do not need to modify the interior nodes of the tree or
synchronize access to them."

The cell that owns a tree node is the *data home* for every anonymous
page recorded in that node.

Every walk up a tree goes through :meth:`CowManager.local_ancestry`,
which owns the two rules a corrupt tree can break: a parent pointer must
resolve to a COW node, and a walk never meets the same node twice.  The
second rule keeps the path walked so far, so a cycle is found on the hop
that closes it rather than after some fixed number of hops.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.unix.kheap import KernelHeap, KObject

#: allocator type tag for COW nodes (checked by careful reference)
COW_NODE_TAG = "cownode"


class CowTreeCorrupt(LookupError):
    """A walk met a parent pointer it cannot follow.

    ``check`` names the broken rule (``"type_tag"`` or ``"cycle"``) and
    ``cell`` the suspect, whose memory holds the corruption: the owner
    of the node whose pointer does not resolve, or for a cycle the first
    cell on it other than the walker's.  The walker suspects itself only
    when the whole cycle lies in its own memory.
    """

    def __init__(self, cell: int, check: str, message: str):
        super().__init__(message)
        self.cell = cell
        self.check = check


class CowNode(KObject):
    """One node of a copy-on-write tree."""

    __slots__ = ("node_id", "owner_cell", "parent_addr", "parent_cell",
                 "pages", "refs")

    def __init__(self, node_id: int, owner_cell: int):
        super().__init__()
        self.node_id = node_id
        self.owner_cell = owner_cell
        #: kernel address of the parent node; 0 at the root.  May point
        #: into another cell's kernel memory.
        self.parent_addr = 0
        #: hint: which cell owns the parent (what a C kernel would encode
        #: in the address itself; kept separate for clarity).
        self.parent_cell = owner_cell
        #: page indices recorded at this node.  The data for page ``i`` of
        #: node ``n`` lives in the page cache under logical id
        #: ``(("anon", owner_cell, node_id), i)``.
        self.pages: Set[int] = set()
        #: processes whose leaf this is + child nodes keeping it alive.
        self.refs = 0

    def anon_tag(self) -> tuple:
        return ("anon", self.owner_cell, self.node_id)


class CowManager:
    """Per-kernel manager of the COW nodes owned by that kernel."""

    def __init__(self, cell_id: int, heap: KernelHeap):
        self.cell_id = cell_id
        self.heap = heap
        self._next_id = 1
        self._nodes: Dict[int, CowNode] = {}
        self.splits = 0

    # -- allocation -------------------------------------------------------

    def new_root(self) -> CowNode:
        """A fresh tree for a process with no COW ancestry (exec)."""
        node = self._alloc()
        node.refs = 1
        return node

    def _alloc(self) -> CowNode:
        node = CowNode(self._next_id, self.cell_id)
        self._next_id += 1
        self.heap.alloc(node, COW_NODE_TAG)
        self._nodes[node.node_id] = node
        return node

    def node(self, node_id: int) -> Optional[CowNode]:
        return self._nodes.get(node_id)

    def resolve(self, addr: int) -> Optional[CowNode]:
        """The COW node at kernel address ``addr`` in this kernel's heap;
        None when the type tag there is not a COW node's."""
        resolved = self.heap.resolve(addr)
        if resolved is None or resolved[0] != COW_NODE_TAG:
            return None
        return resolved[1]

    # -- fork ----------------------------------------------------------------

    def split_leaf(self, leaf: CowNode) -> Tuple[CowNode, CowNode]:
        """Split ``leaf`` for a fork: returns (parent_leaf, child_leaf).

        The old leaf becomes an interior node referenced by both new
        leaves; the caller rebinds the two processes to the new leaves.
        The child leaf is allocated *locally* ("the leaf node ... is
        always local to a process"); for a cross-cell fork the remote
        cell allocates the child leaf in its own manager and links it to
        the old leaf by address.
        """
        self.splits += 1
        parent_leaf = self._alloc()
        child_leaf = self._alloc()
        for new in (parent_leaf, child_leaf):
            new.parent_addr = leaf.kaddr
            new.parent_cell = leaf.owner_cell
            new.refs = 1
        # leaf loses its process ref (caller moves it) but gains two
        # children: net +1.
        leaf.refs += 1
        return parent_leaf, child_leaf

    def adopt_remote_child(self, parent_addr: int, parent_cell: int) -> CowNode:
        """Allocate a local leaf whose parent lives on another cell."""
        node = self._alloc()
        node.parent_addr = parent_addr
        node.parent_cell = parent_cell
        node.refs = 1
        return node

    # -- page recording -----------------------------------------------------

    def record_page(self, leaf: CowNode, page_index: int) -> None:
        if leaf.owner_cell != self.cell_id:
            raise ValueError("pages are recorded only at local leaves")
        leaf.pages.add(page_index)

    # -- the ancestry walk ---------------------------------------------------

    def local_ancestry(self, node: CowNode,
                       path: Optional[Dict[CowNode, None]] = None
                       ) -> Iterator[CowNode]:
        """Yield ``node``, then each ancestor this kernel's heap holds.

        The walk ends at the root, or after the first node whose parent
        lives in another cell.  Hive reads that parent carefully and
        continues the walk from it, passing the same ``path`` (the nodes
        visited so far, in order) so that a cycle through several cells
        is found too.  A parent pointer that does not resolve to a COW
        node, and a node met twice, raise :class:`CowTreeCorrupt`.  The
        parent is resolved only when the caller asks for the next node.
        """
        if path is None:
            path = {}
        while True:
            if node in path:
                raise CowTreeCorrupt(
                    self._cycle_suspect(path, node), "cycle",
                    f"COW tree cycle at node {node.owner_cell}:"
                    f"{node.node_id}")
            path[node] = None
            yield node
            if node.parent_addr == 0 or node.parent_cell != self.cell_id:
                return
            parent = self.resolve(node.parent_addr)
            if parent is None:
                raise CowTreeCorrupt(
                    node.owner_cell, "type_tag",
                    f"corrupt COW parent pointer {node.parent_addr:#x}")
            node = parent

    def _cycle_suspect(self, path: Dict[CowNode, None],
                       again: CowNode) -> int:
        """The first cell other than ours on the cycle that starts at
        ``again``; ours when the cycle never leaves our memory."""
        walked = list(path)
        for node in walked[walked.index(again):]:
            if node.owner_cell != self.cell_id:
                return node.owner_cell
        return self.cell_id

    # -- teardown -------------------------------------------------------------

    def deref(self, node: CowNode) -> List[tuple]:
        """Drop one reference; free unreferenced chain toward the root.

        Returns the list of ``(anon_tag, page_index)`` logical ids whose
        data can be freed from the page cache.  Only local parents are
        walked; a remote parent's refcount is decremented by the Hive
        layer via RPC.  A corrupt pointer ends the release where it is.
        """
        freed: List[tuple] = []
        try:
            for current in self.local_ancestry(node):
                current.refs -= 1
                if current.refs > 0:
                    return freed
                tag = current.anon_tag()
                freed.extend((tag, idx) for idx in sorted(current.pages))
                self._nodes.pop(current.node_id, None)
                if current.kaddr:
                    self.heap.free(current)
        except CowTreeCorrupt:
            return freed
        if current.parent_addr:
            # Remote parent: caller must send a deref RPC.
            freed.append(("remote-parent",
                          current.parent_cell, current.parent_addr))
        return freed

    @property
    def live_nodes(self) -> int:
        return len(self._nodes)
