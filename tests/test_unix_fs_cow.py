"""Unit and property tests for the file system and COW trees."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.disk import Disk
from repro.hardware.params import HardwareParams
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.unix.cow import COW_NODE_TAG, CowManager, CowNode, CowTreeCorrupt
from repro.unix.errors import FileError
from repro.unix.fs import PAGE, DiskFileSystem
from repro.unix.kheap import KernelHeap, KObject


@pytest.fixture
def fs():
    sim = Simulator()
    disk = Disk(sim, HardwareParams(), RandomStreams(1), node_id=0)
    return sim, DiskFileSystem(sim, fs_id=0, disk=disk, home_cell=0)


class TestNamespace:
    def test_create_and_lookup(self, fs):
        _sim, f = fs
        inode = f.create("/a/b/c.txt")
        assert f.lookup("/a/b/c.txt") is inode
        assert f.lookup("/a/b").is_dir  # implicit parents

    def test_absolute_paths_required(self, fs):
        _sim, f = fs
        with pytest.raises(FileError):
            f.lookup("relative")

    def test_normalization(self, fs):
        _sim, f = fs
        f.create("/x/y")
        assert f.lookup("//x//y/") .path == "/x/y"

    def test_duplicate_create_rejected(self, fs):
        _sim, f = fs
        f.create("/a")
        with pytest.raises(FileError):
            f.create("/a")

    def test_missing_lookup_enoent(self, fs):
        _sim, f = fs
        with pytest.raises(FileError) as err:
            f.lookup("/nope")
        assert err.value.errno == "ENOENT"

    def test_file_as_directory_rejected(self, fs):
        _sim, f = fs
        f.create("/plain")
        with pytest.raises(FileError):
            f.create("/plain/child")

    def test_unlink_removes(self, fs):
        _sim, f = fs
        f.create("/t")
        f.unlink("/t")
        assert not f.exists("/t")

    def test_unlink_nonempty_dir_rejected(self, fs):
        _sim, f = fs
        f.create("/d/child")
        with pytest.raises(FileError):
            f.unlink("/d")

    def test_listdir(self, fs):
        _sim, f = fs
        f.create("/d/a")
        f.create("/d/b")
        f.create("/d/sub/c")
        assert f.listdir("/d") == ["/d/a", "/d/b", "/d/sub"]


class TestBlockIO:
    def test_write_then_read_roundtrip(self, fs):
        sim, f = fs
        inode = f.create("/data")
        payload = b"\xab" * PAGE

        def prog():
            yield from f.write_page_to_disk(inode, 0, payload)
            data = yield from f.read_page_from_disk(inode, 0)
            return data

        p = sim.process(prog())
        sim.run()
        assert p.value == payload
        assert f.disk_reads == 1 and f.disk_writes == 1

    def test_unwritten_page_reads_zero(self, fs):
        sim, f = fs
        inode = f.create("/data")

        def prog():
            return (yield from f.read_page_from_disk(inode, 3))

        p = sim.process(prog())
        sim.run()
        assert p.value == b"\x00" * PAGE

    def test_io_takes_disk_time(self, fs):
        sim, f = fs
        inode = f.create("/data")
        p = sim.process(f.read_page_from_disk(inode, 0))
        sim.run()
        assert sim.now > 1_000_000

    def test_unlink_releases_blocks(self, fs):
        sim, f = fs
        inode = f.create("/data")
        sim.process(f.write_page_to_disk(inode, 0, b"\x01" * PAGE))
        sim.run()
        assert f._platter
        f.unlink("/data")
        assert not f._platter

    def test_generation_bump(self, fs):
        _sim, f = fs
        inode = f.create("/g")
        assert inode.generation == 0
        assert f.bump_generation(inode) == 1
        assert inode.generation == 1

    def test_peek_disk_page(self, fs):
        sim, f = fs
        inode = f.create("/p")
        sim.process(f.write_page_to_disk(inode, 1, b"\x02" * PAGE))
        sim.run()
        assert f.peek_disk_page(inode, 1) == b"\x02" * PAGE
        assert f.peek_disk_page(inode, 9) == b"\x00" * PAGE


class TestCowTrees:
    def make(self):
        heap = KernelHeap(0, 0x100000, 0x40000)
        return heap, CowManager(0, heap)

    def test_root_allocation(self):
        heap, cm = self.make()
        root = cm.new_root()
        assert root.refs == 1
        assert heap.resolve(root.kaddr)[0] == COW_NODE_TAG

    def test_fork_split_structure(self):
        _heap, cm = self.make()
        root = cm.new_root()
        cm.record_page(root, 5)
        parent_leaf, child_leaf = cm.split_leaf(root)
        assert parent_leaf.parent_addr == root.kaddr
        assert child_leaf.parent_addr == root.kaddr
        assert root.refs == 2  # two children (process ref moved away)

    def test_lookup_walks_to_ancestor(self):
        _heap, cm = self.make()
        root = cm.new_root()
        cm.record_page(root, 5)
        _pl, child_leaf = cm.split_leaf(root)
        chain = list(cm.local_ancestry(child_leaf))
        assert chain == [child_leaf, root]
        assert 5 in chain[1].pages

    def test_post_fork_writes_are_private(self):
        _heap, cm = self.make()
        root = cm.new_root()
        parent_leaf, child_leaf = cm.split_leaf(root)
        cm.record_page(parent_leaf, 9)
        # The child's search must not see the parent's post-fork page.
        seen = set()
        for node in cm.local_ancestry(child_leaf):
            seen |= node.pages
        assert 9 not in seen

    def test_corrupt_pointer_detected_in_local_walk(self):
        _heap, cm = self.make()
        root = cm.new_root()
        _pl, child = cm.split_leaf(root)
        child.parent_addr = child.parent_addr + 8  # one word off
        with pytest.raises(LookupError):
            list(cm.local_ancestry(child))

    def test_self_pointer_loop_detected(self):
        _heap, cm = self.make()
        root = cm.new_root()
        _pl, child = cm.split_leaf(root)
        child.parent_addr = child.kaddr
        with pytest.raises(LookupError):
            list(cm.local_ancestry(child))

    def test_cycle_found_on_the_hop_that_closes_it(self):
        """A two-node cycle: the walk yields each node once, then names
        its own cell, since the cycle never leaves its memory."""
        _heap, cm = self.make()
        root = cm.new_root()
        _pl, child = cm.split_leaf(root)
        root.parent_addr = child.kaddr
        walked = []
        with pytest.raises(CowTreeCorrupt) as info:
            for node in cm.local_ancestry(child):
                walked.append(node)
        assert walked == [child, root]
        assert (info.value.check, info.value.cell) == ("cycle", 0)

    def test_cycle_through_another_cell_names_that_cell(self):
        """Cell 0's walk goes leaf -> cell 1's node -> back to the leaf:
        the suspect is cell 1, never the walker."""
        _heap, cm = self.make()
        leaf = cm.new_root()
        remote = CowNode(7, owner_cell=1)
        remote.parent_addr = leaf.kaddr
        remote.parent_cell = 0
        path = {}
        assert list(cm.local_ancestry(leaf, path)) == [leaf]
        with pytest.raises(CowTreeCorrupt) as info:
            list(cm.local_ancestry(remote, path))
        assert (info.value.check, info.value.cell) == ("cycle", 1)

    def test_bad_pointer_names_the_cell_holding_it(self):
        _heap, cm = self.make()
        remote = CowNode(7, owner_cell=1)
        remote.parent_addr = 0x100008  # claims a parent in cell 0's heap
        remote.parent_cell = 0
        with pytest.raises(CowTreeCorrupt) as info:
            list(cm.local_ancestry(remote))
        assert (info.value.check, info.value.cell) == ("type_tag", 1)

    def test_deref_stops_at_a_pointer_to_another_type(self):
        heap, cm = self.make()
        root = cm.new_root()
        cm.record_page(root, 3)
        other = KObject()
        heap.alloc(other, "region")
        root.parent_addr = other.kaddr
        assert cm.deref(root) == [(root.anon_tag(), 3)]
        assert cm.live_nodes == 0

    def test_deref_frees_chain_and_reports_pages(self):
        heap, cm = self.make()
        root = cm.new_root()
        cm.record_page(root, 1)
        parent_leaf, child_leaf = cm.split_leaf(root)
        freed_child = cm.deref(child_leaf)
        assert freed_child == []  # root still referenced by parent_leaf
        freed_parent = cm.deref(parent_leaf)
        assert (root.anon_tag(), 1) in freed_parent
        assert cm.live_nodes == 0

    def test_remote_parent_deref_reported(self):
        _heap, cm = self.make()
        leaf = cm.adopt_remote_child(parent_addr=0xDEAD00, parent_cell=2)
        freed = cm.deref(leaf)
        assert ("remote-parent", 2, 0xDEAD00) in freed

    @given(forks=st.lists(st.integers(0, 3), max_size=8),
           writes=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 20)),
                           max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_cow_semantics_match_reference_model(self, forks, writes):
        """Property: the tree gives fork-time snapshot semantics.

        A reference model tracks, for each process, the pages it should
        see (its own writes + pages visible at each fork).  The tree
        lookup must agree for every process and page.
        """
        _heap, cm = self.make()
        leaves = [cm.new_root()]
        visible = [{}]  # per process: page -> writer id

        for f in forks:
            src = f % len(leaves)
            pl, cl = cm.split_leaf(leaves[src])
            leaves[src] = pl
            leaves.append(cl)
            visible.append(dict(visible[src]))
        for proc_i, page in writes:
            proc = proc_i % len(leaves)
            cm.record_page(leaves[proc], page)
            visible[proc][page] = proc

        for proc, leaf in enumerate(leaves):
            for page in range(21):
                found = None
                for node in cm.local_ancestry(leaf):
                    if page in node.pages:
                        found = node
                        break
                assert (found is not None) == (page in visible[proc])
