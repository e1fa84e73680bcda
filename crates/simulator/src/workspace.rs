//! The reusable [`SimWorkspace`]: every buffer the exact slot kernel
//! ([`crate::wavefront`]) needs, plus the per-run builders that fill them.
//!
//! The naive kernel (retained in [`crate::reference`]) allocates on every
//! slot: two fresh token `Vec`s, a `Vec<(NodeId, Vec<NodeId>)>` per packet
//! for hop grouping, a `Vec<NodeId>` per surviving packet, and a full
//! re-sort of the active set. The exact kernel replays the *same slot
//! semantics* with no heap allocation inside the slot loop once the
//! workspace has reached its high-water capacities:
//!
//! * **Token buffers** are preallocated once per run and reset in place
//!   each slot (`copy_from_slice` from cached bandwidth vectors).
//! * **Unicast packets** wait in per-switch min-heaps whose `Vec`s are
//!   cleared, never dropped, between runs.
//! * **Multicast packets** live in a slab with a free list; their
//!   destination sets and cached grouping plans are recycled through
//!   buffer pools.
//! * **Routing** uses a dense CSR table over `object × processor`
//!   (`route_off`/`route_entries`) instead of a `HashMap<(u32, u32), …>`,
//!   and injection queues are a CSR over processors in trace order.
//!
//! A workspace can be reused across runs (and across networks); buffers
//! are re-sized at bind time and only grow.

use crate::engine::SimError;
use crate::trace::Request;
use crate::wavefront::{Cand, GroupPlan, McPacket, QPacket};
use hbn_load::Placement;
use hbn_topology::{CapacityOverlay, EdgeId, Network, NodeId};
use hbn_workload::{AccessMatrix, ObjectId};
use std::collections::BinaryHeap;

/// One assignment entry in the dense router, with remaining budgets.
#[derive(Debug, Clone, Copy)]
struct RouteEntry {
    server: NodeId,
    reads: u64,
    writes: u64,
}

/// A routed request waiting in its processor's injection queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    pub(crate) object: ObjectId,
    pub(crate) server: NodeId,
    pub(crate) is_write: bool,
}

/// Reusable buffers for the exact slot kernel. Construct once, pass to
/// [`crate::simulate_with`] any number of times; every buffer is reset at
/// bind time and retains its capacity between runs.
#[derive(Debug, Default)]
pub struct SimWorkspace {
    // Static per-run caches of the capacity normalisation: b(e) per switch
    // (0 at the root slot) and 2·b(B) per bus (0 at processors), both
    // under the run's capacity overlay when one is bound.
    pub(crate) edge_bw: Vec<u64>,
    pub(crate) bus_bw2: Vec<u64>,
    // Down buses of the bound overlay: zero bus tokens while
    // `slot < outage_slots`, so their packets defer and retry.
    pub(crate) down_buses: Vec<NodeId>,
    pub(crate) outage_slots: u64,
    // Dense router: CSR over object × processor (dense processor index).
    route_off: Vec<u32>,
    route_entries: Vec<RouteEntry>,
    // Injection queues: CSR over processors, entries in trace order.
    pub(crate) q_off: Vec<u32>,
    pub(crate) q_cursor: Vec<u32>,
    pub(crate) q_entries: Vec<Queued>,
    // Per-slot token buffers, reset in place.
    pub(crate) edge_tokens: Vec<u64>,
    pub(crate) bus_tokens: Vec<u64>,
    /// Per-switch min-heaps of waiting unicast packets, indexed by the
    /// switch's child endpoint (the root slot is never used).
    pub(crate) heaps: Vec<BinaryHeap<QPacket>>,
    /// Switches with (possibly) non-empty heaps, plus membership flags.
    pub(crate) active_edges: Vec<u32>,
    pub(crate) active_next: Vec<u32>,
    pub(crate) edge_active: Vec<bool>,
    /// Multicast slab; emptied `dests` marks a dead entry whose slot is
    /// on `mc_free`.
    pub(crate) mc: Vec<McPacket>,
    /// Slab indices of live multicasts, sorted by `(prio, seq)`. The
    /// commit phase merges this list with the switch-head heap; spawns
    /// binary-insert (injection-time keys are monotone, so they append).
    pub(crate) mc_order: Vec<u32>,
    pub(crate) mc_free: Vec<u32>,
    pub(crate) mc_spawn: Vec<McPacket>,
    mc_pool: Vec<Vec<NodeId>>,
    mc_group_pool: Vec<Vec<GroupPlan>>,
    /// Per-slot candidate heap and the unicasts routed into switch
    /// queues at the next flush.
    pub(crate) cands: BinaryHeap<Cand>,
    pub(crate) arrivals: Vec<QPacket>,
    // Multicast grouping scratch.
    pub(crate) hop_of: Vec<NodeId>,
    pub(crate) group_hops: Vec<NodeId>,
    pub(crate) remaining: Vec<NodeId>,
    pub(crate) frag: Vec<NodeId>,
    pub(crate) upd: Vec<NodeId>,
    // Outputs.
    pub(crate) edge_crossings: Vec<u64>,
    pub(crate) latencies: Vec<u64>,
}

impl SimWorkspace {
    /// An empty workspace; buffers are sized lazily on first use.
    pub fn new() -> SimWorkspace {
        SimWorkspace::default()
    }

    /// Reset all per-run state and (re)build the static caches for `net`
    /// under an optional capacity overlay. A pristine (or absent)
    /// overlay yields the unmodified bandwidths.
    pub(crate) fn bind(&mut self, net: &Network, overlay: Option<&CapacityOverlay>) {
        let n = net.n_nodes();
        self.edge_bw.clear();
        self.edge_bw.extend(net.nodes().map(|v| {
            if v == net.root() {
                0
            } else {
                net.edge_bandwidth(EdgeId::from(v))
            }
        }));
        self.bus_bw2.clear();
        self.bus_bw2.extend(net.nodes().map(|v| {
            if net.is_bus(v) {
                match overlay {
                    Some(o) => 2 * o.effective_node_bandwidth(net, v),
                    None => 2 * net.node_bandwidth(v),
                }
            } else {
                0
            }
        }));
        self.down_buses.clear();
        self.outage_slots = 0;
        if let Some(o) = overlay {
            self.down_buses.extend(o.down_nodes().into_iter().filter(|&v| net.is_bus(v)));
            self.outage_slots = o.outage_slots();
        }
        self.edge_tokens.clear();
        self.edge_tokens.resize(n, 0);
        self.bus_tokens.clear();
        self.bus_tokens.resize(n, 0);
        self.edge_crossings.clear();
        self.edge_crossings.resize(n, 0);
        self.latencies.clear();
        if self.heaps.len() < n {
            self.heaps.resize_with(n, BinaryHeap::new);
        }
        for h in &mut self.heaps {
            h.clear();
        }
        self.active_edges.clear();
        self.active_next.clear();
        self.edge_active.clear();
        self.edge_active.resize(n, false);
        // Dead entries gave their buffers back when they died; only the
        // live ones of a run cut short by an error still hold any.
        for m in self.mc.drain(..) {
            if !m.dests.is_empty() {
                self.mc_pool.push(m.dests);
                self.mc_group_pool.push(m.groups);
            }
        }
        self.mc_order.clear();
        self.mc_free.clear();
        self.mc_spawn.clear();
        self.cands.clear();
        self.arrivals.clear();
    }

    /// Build the dense CSR router from the placement's assignments.
    ///
    /// Entries keep the naive router's scan order (per object, assignment
    /// order), so split budgets are consumed identically. Assignment
    /// entries whose `processor` is not a leaf are unroutable by
    /// construction and skipped.
    pub(crate) fn build_router(
        &mut self,
        net: &Network,
        matrix: &AccessMatrix,
        placement: &Placement,
    ) {
        let n_procs = net.n_processors();
        let cells = matrix.n_objects() * n_procs;
        self.route_off.clear();
        self.route_off.resize(cells + 1, 0);
        for x in matrix.objects() {
            for e in placement.assignment(x) {
                if !net.is_processor(e.processor) {
                    continue;
                }
                let cell = x.index() * n_procs + net.processor_index(e.processor);
                self.route_off[cell + 1] += 1;
            }
        }
        for i in 0..cells {
            self.route_off[i + 1] += self.route_off[i];
        }
        self.route_entries.clear();
        self.route_entries.resize(
            self.route_off[cells] as usize,
            RouteEntry { server: NodeId(0), reads: 0, writes: 0 },
        );
        // Fill via per-cell cursors, reusing q_cursor as scratch.
        self.q_cursor.clear();
        self.q_cursor.extend_from_slice(&self.route_off[..cells]);
        for x in matrix.objects() {
            for e in placement.assignment(x) {
                if !net.is_processor(e.processor) {
                    continue;
                }
                let cell = x.index() * n_procs + net.processor_index(e.processor);
                let at = self.q_cursor[cell];
                self.q_cursor[cell] += 1;
                self.route_entries[at as usize] =
                    RouteEntry { server: e.server, reads: e.reads, writes: e.writes };
            }
        }
    }

    /// Route one request against the remaining budgets, exactly like the
    /// naive router: first entry with budget of the right kind wins. An
    /// object id outside the matrix is unroutable (the CSR table has no
    /// cell for it), matching the reference router's missing-key case.
    fn route(&mut self, n_procs: usize, pi: usize, req: &Request) -> Option<NodeId> {
        let cell = req.object.index() * n_procs + pi;
        if cell + 1 >= self.route_off.len() {
            return None;
        }
        let range = self.route_off[cell] as usize..self.route_off[cell + 1] as usize;
        for entry in &mut self.route_entries[range] {
            if req.is_write && entry.writes > 0 {
                entry.writes -= 1;
                return Some(entry.server);
            }
            if !req.is_write && entry.reads > 0 {
                entry.reads -= 1;
                return Some(entry.server);
            }
        }
        None
    }

    /// Build the per-processor injection queues (CSR) in trace order,
    /// routing every request up front like the naive kernel does.
    pub(crate) fn build_queues(
        &mut self,
        net: &Network,
        trace: &[Request],
    ) -> Result<(), SimError> {
        let n_procs = net.n_processors();
        self.q_off.clear();
        self.q_off.resize(n_procs + 1, 0);
        for req in trace {
            // Non-leaf requesters are rejected in the routing pass below,
            // in trace order (matching the reference kernel); here they
            // are only skipped so the counting pass cannot error.
            if net.is_processor(req.processor) {
                self.q_off[net.processor_index(req.processor) + 1] += 1;
            }
        }
        for i in 0..n_procs {
            self.q_off[i + 1] += self.q_off[i];
        }
        self.q_entries.clear();
        self.q_entries.resize(
            self.q_off[n_procs] as usize,
            Queued { object: ObjectId(0), server: NodeId(0), is_write: false },
        );
        self.q_cursor.clear();
        self.q_cursor.extend_from_slice(&self.q_off[..n_procs]);
        for req in trace {
            // A non-leaf requester can never inject; reject it exactly
            // where the reference kernel does, before routing the request.
            if !net.is_processor(req.processor) {
                return Err(SimError::UnroutedRequest {
                    processor: req.processor,
                    object: req.object,
                });
            }
            let pi = net.processor_index(req.processor);
            let server = self.route(n_procs, pi, req).ok_or(SimError::UnroutedRequest {
                processor: req.processor,
                object: req.object,
            })?;
            let at = self.q_cursor[pi];
            self.q_cursor[pi] += 1;
            self.q_entries[at as usize] =
                Queued { object: req.object, server, is_write: req.is_write };
        }
        // Reset the cursors to the queue heads for the injection loop.
        self.q_cursor.clear();
        self.q_cursor.extend_from_slice(&self.q_off[..n_procs]);
        Ok(())
    }

    /// Mark switch `e` as holding waiting packets.
    #[inline]
    pub(crate) fn activate(&mut self, e: u32) {
        if !self.edge_active[e as usize] {
            self.edge_active[e as usize] = true;
            self.active_edges.push(e);
        }
    }

    /// An empty destination buffer from the pool.
    pub(crate) fn pooled(&mut self) -> Vec<NodeId> {
        let mut dests = self.mc_pool.pop().unwrap_or_default();
        dests.clear();
        dests
    }

    /// An empty grouping-plan buffer from the pool.
    pub(crate) fn pooled_groups(&mut self) -> Vec<GroupPlan> {
        let mut groups = self.mc_group_pool.pop().unwrap_or_default();
        groups.clear();
        groups
    }

    /// Return a dead multicast's buffers to the pools.
    pub(crate) fn recycle(&mut self, dests: Vec<NodeId>, groups: Vec<GroupPlan>) {
        self.mc_pool.push(dests);
        self.mc_group_pool.push(groups);
    }

    /// Move `m` into a free slab slot and register it in the sorted
    /// live list.
    pub(crate) fn mc_admit(&mut self, m: McPacket) {
        let key = m.key();
        let idx = match self.mc_free.pop() {
            Some(i) => {
                self.mc[i as usize] = m;
                i
            }
            None => {
                self.mc.push(m);
                (self.mc.len() - 1) as u32
            }
        };
        let mc = &self.mc;
        let pos = self.mc_order.partition_point(|&j| mc[j as usize].key() < key);
        self.mc_order.insert(pos, idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{expand, simulate_with, SimConfig};
    use hbn_topology::generators::{balanced, BandwidthProfile};
    use hbn_workload::generators as wgen;

    /// Replaying through one workspace many times keeps the multicast
    /// buffer pools at a fixed size: a long-lived session replays an
    /// epoch at a time, forever.
    #[test]
    fn multicast_pools_stay_bounded_across_runs() {
        let net = balanced(3, 2, BandwidthProfile::Uniform);
        let m = wgen::shared_write(&net, 4, 6, 2);
        let mut pl = Placement::new(m.n_objects());
        for x in m.objects() {
            pl.set_copies(x, net.processors().to_vec());
        }
        pl.nearest_assignment(&net, &m);
        let trace = expand(&m);
        let mut ws = SimWorkspace::new();
        let mut sizes = Vec::new();
        for _ in 0..20 {
            simulate_with(&mut ws, &net, &m, &pl, &trace, SimConfig::default()).unwrap();
            assert!(!ws.mc.is_empty(), "the instance must exercise the multicast slab");
            sizes.push((ws.mc_pool.len(), ws.mc_group_pool.len()));
        }
        assert_eq!(sizes[2], sizes[19], "pools grew across runs: {sizes:?}");
    }
}
