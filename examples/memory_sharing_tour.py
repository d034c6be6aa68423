#!/usr/bin/env python3
"""Tour of the Section 5 memory-sharing machinery.

Walks through the paper's Figure 5.3 scenarios against live kernels:

* logical-level sharing — a client cell imports a data page cached at
  its data home through export/import, with the extended pfdat visible
  in the client's hash table and the firewall grant at the data home;
* physical-level sharing — a cell under memory pressure borrows page
  frames from a memory home, which parks them on its reserved list;
* the Section 5.5 interaction — a loaned frame reimported by its memory
  home reuses the preexisting pfdat.

Run:  python examples/memory_sharing_tour.py
"""

from repro.core import boot_hive
from repro.sim import Simulator
from repro.unix.fs import PAGE


def run(sim, gen, label):
    proc = sim.process(gen, name=label)
    sim.run_until_event(proc, deadline=sim.now + 60_000_000_000)
    if not proc.ok:
        raise proc._value
    return proc.value


def main() -> None:
    sim = Simulator()
    hive = boot_hive(sim, num_cells=2)
    # On a 4-node machine split into two cells, cell 1 owns nodes {2,3};
    # serve /data from its first node so the client's accesses go remote.
    hive.namespace.mount("/data", hive.cell(1).node_ids[0])
    client, home = hive.cell(0), hive.cell(1)

    # ------------------------------------------------------------------
    # Logical-level sharing (Figure 5.3a)
    # ------------------------------------------------------------------
    print("== logical-level sharing ==")
    done = {}

    def writer(ctx):
        fd = yield from ctx.open("/data/page", "w", create=True)
        yield from ctx.write(fd, b"D" * PAGE)
        yield from ctx.close(fd)

    proc = home.create_process("writer")
    thread = home.start_thread(proc, writer)
    sim.run_until_event(thread.sim_process, deadline=sim.now + 10**11)

    def importer(ctx):
        region = yield from ctx.map_file("/data/page", writable=True)
        t0 = ctx.sim.now
        pte = yield from ctx.touch(region, 0, write=True)
        done["fault_us"] = (ctx.sim.now - t0) / 1e3
        done["frame"] = pte.frame
        pf = client.pfdats.by_frame(pte.frame)
        print(f"  remote fault latency : {done['fault_us']:.1f} us "
              f"(paper: 50.7)")
        print(f"  imported frame       : {pte.frame} "
              f"(node {hive.params.node_of_frame(pte.frame)}, "
              f"extended pfdat: {pf.extended})")
        print(f"  data home grants     : "
              f"{home.firewall_mgr.remotely_writable_pages()} page(s) "
              "writable by the client cell")
        # Model a TLB shootdown: the hardware mapping drops but the
        # import stays cached, so the next fault hits the client hash.
        old_pte = ctx.process.aspace.unmap_page(client.kernel_id,
                                                region.start_vpn)
        t0 = ctx.sim.now
        new_pte = yield from ctx.touch(region, 0, write=True)
        new_pte.pfdat.refcount -= 1  # the shot-down mapping's reference
        print(f"  re-fault (client hit): {(ctx.sim.now - t0)/1e3:.1f} us "
              f"(paper local: 6.9)")

    proc = client.create_process("importer")
    thread = client.start_thread(proc, importer)
    sim.run_until_event(thread.sim_process, deadline=sim.now + 10**11)
    sim.run(until=sim.now + 50_000_000)
    print(f"  after process exit   : grants revoked -> "
          f"{home.firewall_mgr.remotely_writable_pages()} writable pages")

    # ------------------------------------------------------------------
    # Physical-level sharing (Figure 5.3b)
    # ------------------------------------------------------------------
    print("\n== physical-level sharing ==")

    def borrow():
        result = yield from client.rpc.call(1, "borrow_frames",
                                            {"count": 4})
        return result["frames"]

    frames = run(sim, borrow(), "borrow")
    print(f"  borrowed frames      : {frames} from cell 1")
    print(f"  memory home reserved : "
          f"{sorted(home.pfdats.reserved)} (parked, ignored)")
    pfs = [client.pfdats.borrow(f, 1) for f in frames]
    print(f"  borrower manages     : frame {pfs[0].frame} via extended pfdat")
    for pf in pfs:
        client.drop_frame(pf)
    sim.run(until=sim.now + 100_000_000)
    print(f"  after return         : reserved list = "
          f"{sorted(home.pfdats.reserved)}")

    # ------------------------------------------------------------------
    # Loan + reimport (Section 5.5)
    # ------------------------------------------------------------------
    print("\n== loaned frame reimported by its memory home ==")

    def borrow_one():
        result = yield from home.rpc.call(0, "borrow_frames", {"count": 1})
        return result["frames"][0]

    frame = run(sim, borrow_one(), "borrow-one")
    reserved_pf = client.pfdats.reserved[frame]
    imported = client.import_page(frame, data_home=1,
                                  logical_id=(("file", 1, 7), 0),
                                  is_writable=False)
    print(f"  frame {frame}: loaned to cell 1, reimported by cell 0")
    print(f"  reuses regular pfdat : {imported is reserved_pf}")
    print(f"  physical state       : loaned_to={imported.loaned_to}")
    print(f"  logical state        : imported_from="
          f"{imported.imported_from}")


if __name__ == "__main__":
    main()
