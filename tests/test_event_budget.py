"""Event budgets: what one kernel-level operation costs the engine.

One table, operation -> (waits, events, simulated ns), on the paper's
microbenchmark machine (``boot_two_cell(1995)``).  *Waits* are the
sleeps and event waits of the process performing the operation,
*events* every engine dispatch the operation causes on any cell, *ns*
its simulated latency.

Back-to-back fixed delays with nothing observable between them are one
sleep (DESIGN.md 3f), which may change the first two columns and never
the third: the ns column and the failure instants below were measured
with this harness on the commit before delays were composed (7e5edbd)
and have to stay what they are.  The tests also hold a careful section
open across its memory access and closed on return.
"""

import pytest

from repro.hardware.coherence import CoherenceController
from repro.unix.cow import COW_NODE_TAG
from repro.unix.errors import CarefulReferenceFault
from repro.workloads.micro import boot_two_cell

from tests.test_core_sharing import make_remote_file

#: every scenario has finished its setup and parked by this instant;
#: the operation starts here and is given WINDOW ns to finish
SETTLE, WINDOW = 200_000_000, 200_000


def counting(gen, box):
    """``yield from gen``, counting what it yields into box["waits"]."""
    box.setdefault("waits", 0)
    try:
        target = next(gen)
        while True:
            box["waits"] += 1
            try:
                value = yield target
            except BaseException as exc:
                target = gen.throw(exc)
            else:
                target = gen.send(value)
    except StopIteration as stop:
        return stop.value


def measure(scenario):
    """Run ``scenario`` twice, once with the operation held back: the
    difference in ``events_processed`` over the same window is what the
    operation cost, whatever the clock ticks and monitors did meanwhile.
    Returns the budget, and the system and box of the run that fired.
    """
    events = []
    for fire in (False, True):
        system = boot_two_cell(1995)
        sim = system.sim
        go, box = sim.event("go"), {}
        after = scenario(system, go, box)
        sim.run(until=SETTLE)
        assert box.get("ready"), "scenario setup did not finish"
        before = sim.events_processed
        if fire:
            go.succeed()
        sim.run(until=SETTLE + WINDOW)
        events.append(sim.events_processed - before)
    if after is not None:
        after(box)
    idle, busy = events
    # (less the dispatch that resumes the parked process)
    return (box["waits"], busy - idle - 1, box["ns"]), system, box


def gated(system, go, box, op, prepare=None):
    """A bare engine process: ``prepare()``, park on ``go``, then run the
    generator ``op()`` counted and timed."""
    sim = system.sim

    def body():
        if prepare is not None:
            prepare()
        box["ready"] = True
        yield go
        start = sim.now
        try:
            yield from counting(op(), box)
        except CarefulReferenceFault as exc:
            box["check"] = exc.check
        box["ns"] = sim.now - start

    sim.process(body(), name="budget")


# -- scenarios ---------------------------------------------------------------


def careful_object(address=None, expected=COW_NODE_TAG, damage=None):
    """Cell 0 reads a COW node of cell 1; ``address(system, node)`` picks
    another address, ``damage(system, node)`` breaks something first."""
    def scenario(system, go, box):
        reader, owner = system.cell(0), system.cell(1)
        node = owner.cow.new_root()
        node.pages.add(3)
        box["addr"] = addr = (node.kaddr if address is None
                              else address(system, node))
        if damage is not None:
            damage(system, node)
        gated(system, go, box, lambda: reader.careful.read_object(
            1, addr, expected))
    return scenario


def careful_word(system, go, box):
    reader, watched = system.cell(0), system.cell(1)
    gated(system, go, box,
          lambda: reader.careful.read_word(1, watched.heartbeat_addr),
          # the watched cell dirties its clock line (a tick): the read
          # pays the 0.7 us miss plus the writeback's firewall check
          prepare=lambda: watched.machine.coherence.write(
              watched.cpu_ids[0], watched.heartbeat_addr))


def remote_cow_hop(system, go, box):
    reader, owner = system.cell(0), system.cell(1)
    node = owner.cow.new_root()
    node.pages.add(3)
    leaf = reader.cow.adopt_remote_child(node.kaddr, 1)
    gated(system, go, box, lambda: reader._cow_search_once(leaf, 3))


def rpc(op, arg_bytes):
    def scenario(system, go, box):
        gated(system, go, box, lambda: system.cell(0).rpc.call(
            1, op, {}, arg_bytes=arg_bytes))
    return scenario


def page_fault(remote):
    """A fault that misses the page table and hits a page cache: the
    local one at the file's home, the remote one after dropping the
    import as ``measure_page_fault`` does, so it pays the whole RPC."""
    def scenario(system, go, box):
        make_remote_file(system, npages=2)  # homed on cell 1
        kernel = system.cell(0 if remote else 1)

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f", writable=False)
            yield from ctx.touch(region, 1)
            if remote:
                pf = kernel.pfdats.lookup(
                    (("file", region.fs_id, region.ino), 1))
                kernel.drop_frame(pf)
            ctx.process.aspace.unmap_page(kernel.kernel_id,
                                          region.start_vpn + 1)
            yield 50_000_000  # the release RPC is long done
            box["ready"] = True
            yield go
            start = ctx.sim.now
            yield from counting(ctx.touch(region, 1), box)
            box["ns"] = ctx.sim.now - start

        kernel.start_thread(kernel.create_process("budget"), prog)
    return scenario


def release_one_frame(writable):
    """The last mapping of one imported page drops: a batch of one."""
    def scenario(system, go, box):
        make_remote_file(system, npages=2)
        client = system.cell(0)
        latency = client.rpc.metrics.histogram("latency_ns")
        flush = client._flush_releases
        client._flush_releases = lambda home: counting(flush(home), box)

        def prog(ctx):
            region = yield from ctx.map_file("/shared/f", writable=writable)
            yield from ctx.touch(region, 0, write=writable)
            box["ready"] = True
            yield go
            box["before"] = (latency.total, latency.sum)
            client._drop_mapping(ctx.process.aspace.unmap_page(
                client.kernel_id, region.start_vpn))
            yield ctx.sim.event("never")

        client.start_thread(client.create_process("budget"), prog)

        def after(box):
            calls, total = box["before"]
            assert latency.total - calls == 1
            box["ns"] = latency.sum - total

        return after
    return scenario


def misaligned(system, node):
    return node.kaddr + 8


def own_heap(system, node):
    """An address in the *reader's* kernel range, read as cell 1's."""
    return system.cell(0).cow.new_root().kaddr


def halt_owner(system, node):
    system.machine.halt_node(1)


def free_node(system, node):
    system.cell(1).heap.free(node)


# -- the table ---------------------------------------------------------------

#: operation -> (scenario, waits, events, simulated ns)
BUDGET = {
    # on + 2 checks + the 700 ns miss + 8 words copied + off
    "careful read_object": (careful_object(), 3, 6, 1_360),
    # Section 4.1's 1.16 us plus the 40 ns firewall check of the
    # writeback (test_core_careful.py pins the same read)
    "careful read_word": (careful_word, 2, 4, 1_200),
    # the 800 ns walk and a 16-word read_object
    "remote COW hop": (remote_cow_hop, 3, 6, 2_240),
    "null RPC": (rpc("ping", 64), 3, 11, 7_200),
    "160 B by-reference RPC": (rpc("ping", 160), 3, 11, 17_300),
    "512 B by-reference RPC": (rpc("ping", 512), 3, 11, 17_300),
    "queued RPC": (rpc("ping_queued", 64), 3, 15, 34_000),
    "local fault": (page_fault(remote=False), 2, 4, 6_900),
    "remote fault": (page_fault(remote=True), 6, 31, 50_700),
    "release_pages, one read-only frame": (
        release_one_frame(writable=False), 3, 12, 7_900),
    "release_pages, one writable frame": (
        release_one_frame(writable=True), 3, 14, 9_500),
}

#: failing careful read -> (scenario, check, waits, events, ns from the
#: start of the section to the raise)
FAILURES = {
    "alignment": (careful_object(address=misaligned),
                  "alignment", 1, 3, 320),
    "range": (careful_object(address=own_heap), "range", 1, 3, 320),
    "bus error": (careful_object(damage=halt_owner),
                  "bus_error", 1, 2, 320),
    "type tag, freed": (careful_object(damage=free_node),
                        "type_tag", 3, 7, 1_080),
    "type tag, other type": (careful_object(expected="region"),
                             "type_tag", 3, 7, 1_080),
}


@pytest.mark.parametrize("operation", sorted(BUDGET))
def test_budget(operation):
    scenario, waits, events, ns = BUDGET[operation]
    assert measure(scenario)[0] == (waits, events, ns)


@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_failure_instant(failure):
    scenario, check, waits, events, ns = FAILURES[failure]
    budget, system, box = measure(scenario)
    assert (box["check"], budget) == (check, (waits, events, ns))
    reader = system.cell(0).careful
    assert reader.active_target is None and reader.faults_detected == 1


def test_section_is_open_at_the_access_and_closed_on_return(monkeypatch):
    system = boot_two_cell(1995)
    reader = system.cell(0).careful
    go, box = system.sim.event("go"), {}
    careful_object()(system, go, box)
    seen = []
    read = CoherenceController.read

    def spy(coherence, cpu, addr):
        if coherence is system.machine.coherence and addr == box["addr"]:
            seen.append((list(reader._active), system.sim.now - SETTLE))
        return read(coherence, cpu, addr)

    monkeypatch.setattr(CoherenceController, "read", spy)
    system.sim.run(until=SETTLE)
    go.succeed()
    system.sim.run(until=SETTLE + WINDOW)
    # Open against cell 1 when the tag is read, on + one check in.
    assert seen == [([1], 320)]
    assert box["ns"] == 1_360 and reader.reads == 1
    assert reader._active == [] and reader.active_target is None
