//! The exact slot kernel behind [`crate::simulate`]: event-driven
//! arbitration over per-switch queues, run as a single-threaded
//! wavefront.
//!
//! Replays the slot semantics of [`crate::reference`] bit for bit —
//! identical [`SimResult`]s, including under a [`CapacityOverlay`] — but
//! does not scan every active packet every slot. At congested operating
//! points most packets are blocked for most slots, so a scan is
//! O(active packets) of work per slot to move a handful of them.
//!
//! ## Event-driven arbitration: probe queue heads, not packets
//!
//! Every unicast packet waiting to cross switch `e = (c, p)` contends for
//! the *same* token pools — the switch pool `b(e)` plus the bus pools at
//! whichever endpoints are buses — regardless of direction. Token pools
//! only shrink within a slot. Therefore, if the *smallest-key* packet
//! queued at `e` is blocked, every later packet at `e` is blocked too.
//! The kernel keeps a per-switch min-heap ordered by the arbitration key
//! `(prio, seq)` and probes only heap heads. When a head crosses, the
//! next head enters the candidate set *at its own key position*, so
//! multiple packets still cross one switch per slot exactly when
//! bandwidth allows. Multicast packets (update broadcasts fanning out
//! along their Steiner tree) have no single switch, so each is probed
//! every slot against a cached grouping plan. Per-slot work drops from
//! O(active packets) to O(active switches + crossings + multicasts).
//!
//! ## One slot
//!
//! 1. **Inject**: each processor routes up to `injection_rate` queued
//!    requests into its leaf switch's queue.
//! 2. **Collect**: peek every active switch queue's head.
//! 3. **Commit**: arbitrate the heads and the live multicasts in exact
//!    global `(prio, seq)` order, consuming tokens and recording
//!    crossings, deliveries and latencies.
//! 4. **Apply**: route the slot's moved packets into their next switch
//!    queue, and admit newly spawned multicasts.
//!
//! Commit must see one global key order, because a crossing at switch
//! `(c, p)` draws from bus pools at two adjacent levels — see `DESIGN.md`
//! for the two-packet counterexample. The kernel therefore runs on one
//! thread.

use crate::engine::{SimConfig, SimError, SimResult};
use crate::packet::PacketKind;
use crate::trace::Request;
use crate::workspace::SimWorkspace;
use hbn_load::Placement;
use hbn_topology::{CapacityOverlay, EdgeId, Network, NodeId};
use hbn_workload::{AccessMatrix, ObjectId};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A unicast packet waiting in (or moving between) switch queues.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QPacket {
    prio: u64,
    seq: u64,
    object: ObjectId,
    kind: PacketKind,
    position: NodeId,
    dest: NodeId,
    issued_at: u64,
}

/// A multicast packet (update broadcast with ≥ 2 remaining copies, or a
/// blocked remainder thereof). Destination sets and grouping plans are
/// recycled through the workspace's pools, so the steady-state slot loop
/// stays allocation-free.
#[derive(Debug)]
pub(crate) struct McPacket {
    prio: u64,
    seq: u64,
    object: ObjectId,
    kind: PacketKind,
    position: NodeId,
    issued_at: u64,
    pub(crate) dests: Vec<NodeId>,
    /// Cached arbitration plan (see [`GroupPlan`]); empty = not yet
    /// built. Valid for as long as the packet sits at `position`: a
    /// partial crossing compacts the plan instead of regrouping.
    pub(crate) groups: Vec<GroupPlan>,
}

impl McPacket {
    pub(crate) fn key(&self) -> (u64, u64) {
        (self.prio, self.seq)
    }
}

/// One hop-group of a multicast's cached arbitration plan: the dests in
/// `dests[start .. start + len]` all leave `position` through `edge`
/// towards `hop`. Grouping depends only on `(position, dests)`, and a
/// blocked remainder keeps both — so the plan is computed once per
/// packet and merely *compacted* when some groups cross, turning each
/// blocked slot from a full Steiner regroup into `O(groups)` pool
/// checks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupPlan {
    hop: NodeId,
    /// Switch index (child endpoint), or `u32::MAX` once crossed.
    edge: u32,
    /// Parent-endpoint node index of `edge`.
    parent: u32,
    /// Bit 0: child endpoint is a bus; bit 1: parent endpoint is a bus.
    flags: u8,
    start: u32,
    len: u32,
}

/// An arbitration candidate: a switch-queue head's `(prio, seq)` key
/// and its switch index, min-first. (Multicasts are merged in from the
/// sorted `mc_order` side-list during commit.) Keys are globally unique,
/// so the switch index never decides an order.
pub(crate) type Cand = Reverse<(u64, u64, u32)>;

/// Min-heap order on the arbitration key, for [`BinaryHeap`] (a
/// max-heap). Keys are globally unique, so pop order is a total order
/// independent of insertion order.
impl Ord for QPacket {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.prio, other.seq).cmp(&(self.prio, self.seq))
    }
}

impl PartialOrd for QPacket {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for QPacket {
    fn eq(&self, other: &Self) -> bool {
        (self.prio, self.seq) == (other.prio, other.seq)
    }
}

impl Eq for QPacket {}

/// The switch a packet at `position` must cross next on the way to
/// `dest` (identified, as everywhere, by its child endpoint).
#[inline]
fn next_edge(net: &Network, position: NodeId, dest: NodeId) -> u32 {
    if net.is_ancestor(position, dest) {
        net.child_towards(position, dest).index() as u32
    } else {
        position.index() as u32
    }
}

/// Run the exact kernel; see [`crate::simulate_with`].
pub(crate) fn run(
    ws: &mut SimWorkspace,
    net: &Network,
    matrix: &AccessMatrix,
    placement: &Placement,
    trace: &[Request],
    config: SimConfig,
    overlay: Option<&CapacityOverlay>,
) -> Result<SimResult, SimError> {
    ws.bind(net, overlay);
    ws.build_router(net, matrix, placement);
    ws.build_queues(net, trace)?;

    let n_procs = net.n_processors();
    let mut next_prio = 0u64;
    let mut next_seq = 0u64;
    let mut delivered_requests = 0u64;
    let mut delivered_updates = 0u64;
    let mut makespan = 0u64;
    let mut remaining_queued = trace.len();
    let mut waiting = 0usize;

    let mut slot = 0u64;
    loop {
        if slot >= config.max_slots {
            return Err(SimError::SlotBudgetExceeded);
        }

        // --- Inject: routed packets enter their first switch queue (and
        // a local write's update its queue or the live multicast list)
        // before collection, so they contend in this very slot.
        let mut injected_any = false;
        if remaining_queued > 0 {
            for pi in 0..n_procs {
                let p = net.processor_at(pi);
                for _ in 0..config.injection_rate {
                    let cur = ws.q_cursor[pi];
                    if cur == ws.q_off[pi + 1] {
                        break;
                    }
                    ws.q_cursor[pi] = cur + 1;
                    remaining_queued -= 1;
                    injected_any = true;
                    let q = ws.q_entries[cur as usize];
                    let prio = next_prio;
                    next_prio += 1;
                    if q.server == p {
                        // Local reference copy: request completes instantly.
                        delivered_requests += 1;
                        ws.latencies.push(0);
                        makespan = makespan.max(slot);
                        if q.is_write {
                            spawn_update(
                                ws,
                                placement,
                                q.object,
                                p,
                                slot,
                                &mut next_prio,
                                &mut next_seq,
                            );
                        }
                    } else {
                        let seq = next_seq;
                        next_seq += 1;
                        ws.arrivals.push(QPacket {
                            prio,
                            seq,
                            object: q.object,
                            kind: if q.is_write { PacketKind::Write } else { PacketKind::Read },
                            position: p,
                            dest: q.server,
                            issued_at: slot,
                        });
                    }
                }
            }
            waiting += apply_arrivals(ws, net);
        }

        // --- Token refresh. Down buses grant no tokens during the
        // outage window; every edge has a bus endpoint, so all their
        // crossings defer until the window ends — deferred, not lost.
        ws.edge_tokens.copy_from_slice(&ws.edge_bw);
        ws.bus_tokens.copy_from_slice(&ws.bus_bw2);
        if slot < ws.outage_slots {
            for i in 0..ws.down_buses.len() {
                ws.bus_tokens[ws.down_buses[i].index()] = 0;
            }
        }

        // --- Collect: one candidate per non-empty switch queue ---
        let mut cands = std::mem::take(&mut ws.cands).into_vec();
        cands.clear();
        ws.active_next.clear();
        for i in 0..ws.active_edges.len() {
            let e = ws.active_edges[i];
            match ws.heaps[e as usize].peek() {
                Some(h) => {
                    cands.push(Reverse((h.prio, h.seq, e)));
                    ws.active_next.push(e);
                }
                None => ws.edge_active[e as usize] = false,
            }
        }
        std::mem::swap(&mut ws.active_edges, &mut ws.active_next);
        ws.cands = BinaryHeap::from(cands);

        // --- Commit in exact global (prio, seq) order: a two-way merge
        // of the switch-head heap and the sorted live multicast list
        // (every entry of which is probed each slot: pools refill per
        // slot, so a blocked multicast may cross the very next one).
        let mut mj = 0usize;
        let mut mc_died = false;
        loop {
            let sw_key = ws.cands.peek().map(|&Reverse((prio, seq, _))| (prio, seq));
            let mc_key = ws.mc_order.get(mj).map(|&i| ws.mc[i as usize].key());
            let take_switch = match (sw_key, mc_key) {
                (None, None) => break,
                (Some(s), Some(m)) => s < m,
                (Some(_), None) => true,
                (None, Some(_)) => false,
            };
            if !take_switch {
                let mi = ws.mc_order[mj] as usize;
                mj += 1;
                mc_died |= commit_multicast(
                    ws,
                    net,
                    placement,
                    mi,
                    slot,
                    &mut next_prio,
                    &mut next_seq,
                    &mut delivered_requests,
                    &mut delivered_updates,
                    &mut makespan,
                );
                continue;
            }
            let Reverse((_, _, src)) = ws.cands.pop().expect("peeked");
            let e = src as usize;
            let (a, b) = net.edge_endpoints(EdgeId::from(NodeId(src)));
            let bus_a = net.is_bus(a);
            let bus_b = net.is_bus(b);
            let ok = ws.edge_tokens[e] >= 1
                && (!bus_a || ws.bus_tokens[a.index()] >= 1)
                && (!bus_b || ws.bus_tokens[b.index()] >= 1);
            if !ok {
                // Pools only shrink within a slot, and every packet
                // queued here needs this exact pool set: the whole queue
                // is blocked for the rest of the slot.
                continue;
            }
            ws.edge_tokens[e] -= 1;
            if bus_a {
                ws.bus_tokens[a.index()] -= 1;
            }
            if bus_b {
                ws.bus_tokens[b.index()] -= 1;
            }
            ws.edge_crossings[e] += 1;
            let pkt = ws.heaps[e].pop().expect("candidate heads a non-empty queue");
            waiting -= 1;
            let hop = if pkt.position == a { b } else { a };
            if hop == pkt.dest {
                match pkt.kind {
                    PacketKind::Read | PacketKind::Write => {
                        delivered_requests += 1;
                        ws.latencies.push(slot + 1 - pkt.issued_at);
                        makespan = makespan.max(slot + 1);
                        if pkt.kind == PacketKind::Write {
                            spawn_update(
                                ws,
                                placement,
                                pkt.object,
                                hop,
                                slot + 1,
                                &mut next_prio,
                                &mut next_seq,
                            );
                        }
                    }
                    PacketKind::Update => {
                        delivered_updates += 1;
                        makespan = makespan.max(slot + 1);
                    }
                }
            } else {
                let seq = next_seq;
                next_seq += 1;
                ws.arrivals.push(QPacket { seq, position: hop, ..pkt });
            }
            if let Some(h) = ws.heaps[e].peek() {
                ws.cands.push(Reverse((h.prio, h.seq, src)));
            }
        }

        // --- Apply: enqueue this slot's moves for the next slot, drop
        // dead slab slots from the live list (their buffers were
        // recycled at death), then admit this slot's spawns in key order.
        if mc_died {
            let mc = &ws.mc;
            let free = &mut ws.mc_free;
            ws.mc_order.retain(|&i| {
                if mc[i as usize].dests.is_empty() {
                    free.push(i);
                    false
                } else {
                    true
                }
            });
        }
        waiting += apply_arrivals(ws, net);

        if waiting == 0 && ws.mc_order.is_empty() && !injected_any && remaining_queued == 0 {
            break;
        }
        slot += 1;
    }

    ws.latencies.sort_unstable();
    let mean_latency = if ws.latencies.is_empty() {
        0.0
    } else {
        ws.latencies.iter().sum::<u64>() as f64 / ws.latencies.len() as f64
    };
    let p99_latency = ws
        .latencies
        .get(((ws.latencies.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(0);
    Ok(SimResult {
        makespan,
        delivered_requests,
        delivered_updates,
        mean_latency,
        p99_latency,
        edge_crossings: ws.edge_crossings.clone(),
    })
}

/// Spawn the update broadcast `copies(x) \ {server}` of a write served
/// at `server`; its priority and sequence are drawn here, in global key
/// order. The packet waits in the arrival buffers until the next
/// [`apply_arrivals`]: an update spawned at injection still contends in
/// the current slot, one spawned at a delivery joins the next slot.
fn spawn_update(
    ws: &mut SimWorkspace,
    placement: &Placement,
    x: ObjectId,
    server: NodeId,
    issued_at: u64,
    next_prio: &mut u64,
    next_seq: &mut u64,
) {
    let mut buf = std::mem::take(&mut ws.upd);
    buf.clear();
    buf.extend(placement.copies(x).iter().copied().filter(|&c| c != server));
    buf.sort_unstable();
    buf.dedup();
    if !buf.is_empty() {
        let prio = *next_prio;
        *next_prio += 1;
        let seq = *next_seq;
        *next_seq += 1;
        let kind = PacketKind::Update;
        if buf.len() == 1 {
            let dest = buf[0];
            ws.arrivals.push(QPacket {
                prio,
                seq,
                object: x,
                kind,
                position: server,
                dest,
                issued_at,
            });
        } else {
            let mut dests = ws.pooled();
            dests.extend_from_slice(&buf);
            let groups = ws.pooled_groups();
            ws.mc_spawn.push(McPacket {
                prio,
                seq,
                object: x,
                kind,
                position: server,
                issued_at,
                dests,
                groups,
            });
        }
    }
    ws.upd = buf;
}

/// Route the buffered unicasts into their next switch queues and admit
/// the buffered multicasts into the live list; returns the number of
/// unicasts enqueued.
fn apply_arrivals(ws: &mut SimWorkspace, net: &Network) -> usize {
    let n = ws.arrivals.len();
    for i in 0..n {
        let pkt = ws.arrivals[i];
        let e = next_edge(net, pkt.position, pkt.dest);
        ws.heaps[e as usize].push(pkt);
        ws.activate(e);
    }
    ws.arrivals.clear();
    let mut spawn = std::mem::take(&mut ws.mc_spawn);
    for m in spawn.drain(..) {
        ws.mc_admit(m);
    }
    ws.mc_spawn = spawn;
    n
}

/// Build a multicast's arbitration plan: group `dests` by next hop in
/// first-occurrence order (with a one-entry child-subtree cache, so
/// consecutive destinations in the same subtree skip the O(log degree)
/// lookup), reorder `dests` group-contiguously, and record one
/// [`GroupPlan`] per hop. Called once per packet — the plan stays valid
/// while the packet sits at `v` and is compacted, not rebuilt, after
/// partial crossings.
fn build_plan(
    ws: &mut SimWorkspace,
    net: &Network,
    v: NodeId,
    dests: &mut Vec<NodeId>,
    groups: &mut Vec<GroupPlan>,
) {
    ws.hop_of.clear();
    ws.group_hops.clear();
    let mut cached: Option<(u32, u32, NodeId)> = None;
    for &d in dests.iter() {
        let hop = if !net.is_ancestor(v, d) {
            net.parent(v)
        } else {
            let t = net.preorder_index(d);
            match cached {
                Some((lo, hi, c)) if (lo..hi).contains(&t) => c,
                _ => {
                    let c = net.child_towards(v, d);
                    let lo = net.preorder_index(c);
                    cached = Some((lo, lo + net.subtree_size(c) as u32, c));
                    c
                }
            }
        };
        ws.hop_of.push(hop);
        if !ws.group_hops.contains(&hop) {
            ws.group_hops.push(hop);
        }
    }
    ws.remaining.clear();
    groups.clear();
    for gi in 0..ws.group_hops.len() {
        let hop = ws.group_hops[gi];
        let start = ws.remaining.len() as u32;
        for (off, &h) in ws.hop_of.iter().enumerate() {
            if h == hop {
                ws.remaining.push(dests[off]);
            }
        }
        let edge = if net.parent(hop) == v { hop } else { v };
        let parent = net.parent(edge);
        let flags = net.is_bus(edge) as u8 | ((net.is_bus(parent) as u8) << 1);
        groups.push(GroupPlan {
            hop,
            edge: edge.index() as u32,
            parent: parent.index() as u32,
            flags,
            start,
            len: ws.remaining.len() as u32 - start,
        });
    }
    dests.clear();
    dests.extend_from_slice(&ws.remaining);
}

/// Arbitrate one multicast packet via its cached plan: per-group
/// all-or-nothing token checks, fragment spawning and delivery, with
/// fragments buffered as next-slot arrivals. Returns whether the packet
/// died (all groups crossed) so the slot-end maintenance knows to sweep
/// the live list.
#[allow(clippy::too_many_arguments)]
fn commit_multicast(
    ws: &mut SimWorkspace,
    net: &Network,
    placement: &Placement,
    mi: usize,
    slot: u64,
    next_prio: &mut u64,
    next_seq: &mut u64,
    delivered_requests: &mut u64,
    delivered_updates: &mut u64,
    makespan: &mut u64,
) -> bool {
    if ws.mc[mi].groups.is_empty() {
        let mut dests = std::mem::take(&mut ws.mc[mi].dests);
        let mut groups = std::mem::take(&mut ws.mc[mi].groups);
        let v = ws.mc[mi].position;
        build_plan(ws, net, v, &mut dests, &mut groups);
        ws.mc[mi].dests = dests;
        ws.mc[mi].groups = groups;
    }

    // Fast path: probe the cached plan read-only. Fully blocked packets
    // — the common case at congested operating points — mutate nothing.
    {
        let m = &ws.mc[mi];
        let et = &ws.edge_tokens;
        let bt = &ws.bus_tokens;
        let any_open = m.groups.iter().any(|g| {
            let e = g.edge as usize;
            et[e] >= 1
                && (g.flags & 1 == 0 || bt[e] >= 1)
                && (g.flags & 2 == 0 || bt[g.parent as usize] >= 1)
        });
        if !any_open {
            return false;
        }
    }

    let (prio, object, kind, issued_at) = {
        let m = &ws.mc[mi];
        (m.prio, m.object, m.kind, m.issued_at)
    };
    let mut dests = std::mem::take(&mut ws.mc[mi].dests);
    let mut groups = std::mem::take(&mut ws.mc[mi].groups);
    let mut crossed_any = false;
    for slot_g in groups.iter_mut() {
        let g = *slot_g;
        let e = g.edge as usize;
        let ok = ws.edge_tokens[e] >= 1
            && (g.flags & 1 == 0 || ws.bus_tokens[e] >= 1)
            && (g.flags & 2 == 0 || ws.bus_tokens[g.parent as usize] >= 1);
        if !ok {
            continue;
        }
        crossed_any = true;
        slot_g.edge = u32::MAX;
        ws.edge_tokens[e] -= 1;
        if g.flags & 1 != 0 {
            ws.bus_tokens[e] -= 1;
        }
        if g.flags & 2 != 0 {
            ws.bus_tokens[g.parent as usize] -= 1;
        }
        ws.edge_crossings[e] += 1;

        let hop = g.hop;
        ws.frag.clear();
        let mut delivered_here = 0u64;
        for &d in &dests[g.start as usize..(g.start + g.len) as usize] {
            if d == hop {
                delivered_here += 1;
            } else {
                ws.frag.push(d);
            }
        }
        ws.frag.sort_unstable();
        if !ws.frag.is_empty() {
            let seq = *next_seq;
            *next_seq += 1;
            if ws.frag.len() == 1 {
                ws.arrivals.push(QPacket {
                    prio,
                    seq,
                    object,
                    kind,
                    position: hop,
                    dest: ws.frag[0],
                    issued_at,
                });
            } else {
                let mut fd = ws.pooled();
                fd.extend_from_slice(&ws.frag);
                let fg = ws.pooled_groups();
                ws.mc_spawn.push(McPacket {
                    prio,
                    seq,
                    object,
                    kind,
                    position: hop,
                    issued_at,
                    dests: fd,
                    groups: fg,
                });
            }
        }
        if delivered_here > 0 {
            match kind {
                PacketKind::Read | PacketKind::Write => {
                    *delivered_requests += 1;
                    ws.latencies.push(slot + 1 - issued_at);
                    *makespan = (*makespan).max(slot + 1);
                    if kind == PacketKind::Write {
                        spawn_update(ws, placement, object, hop, slot + 1, next_prio, next_seq);
                    }
                }
                PacketKind::Update => {
                    *delivered_updates += delivered_here;
                    *makespan = (*makespan).max(slot + 1);
                }
            }
        }
    }

    if crossed_any {
        // Compact: surviving groups (and their dest slices) slide left,
        // preserving order — exactly the grouping a fresh rebuild of the
        // remainder would produce, so the plan stays valid.
        let mut w = 0u32;
        let mut gw = 0usize;
        for gi in 0..groups.len() {
            let g = groups[gi];
            if g.edge == u32::MAX {
                continue;
            }
            dests.copy_within(g.start as usize..(g.start + g.len) as usize, w as usize);
            groups[gw] = GroupPlan { start: w, ..g };
            w += g.len;
            gw += 1;
        }
        dests.truncate(w as usize);
        groups.truncate(gw);
    }
    if dests.is_empty() {
        ws.recycle(dests, groups);
        // ws.mc[mi].dests stays empty: dead, swept at slot end.
        true
    } else {
        ws.mc[mi].dests = dests;
        ws.mc[mi].groups = groups;
        false
    }
}
