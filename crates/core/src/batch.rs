//! The batched static-placement kernel: gravity → nibble → extended
//! nibble over *all* objects with shared, reusable scratch.
//!
//! [`crate::ExtendedNibble::place`] is a per-call routine: it allocates a
//! fresh [`Workspace`], walks every object, and drops everything on
//! return. That is the right shape for a one-shot placement, but the
//! scenario engine's periodic re-optimization strategies re-run the full
//! static pipeline every few epochs over the same network — so the
//! allocations repeat per epoch.
//!
//! A [`PlacementKernel`] amortizes them. It owns one epoch-stamped
//! [`Workspace`] (the workspace's node marks are generation-stamped and
//! its weight buffer is cleared through a touched list, so reuse across
//! batches costs no memsets) and one per-object output buffer, runs the
//! per-object steps 1–2 in object-id order, and hands the results to the
//! global mapping phase through the same assembly as the per-object path.
//!
//! # Determinism
//!
//! Steps 1–2 are pure per-object functions of `(net, matrix, x)` — the
//! scratch workspace is an allocation cache, not state — and the global
//! steps (counter recomputation, mapping) run on the object-id-ordered
//! results through the shared `extended::assemble_outcome`. Hence the
//! kernel's output is bit-for-bit equal to
//! [`crate::ExtendedNibble::place`] — the differential suite
//! (`crates/core/tests/batch_differential.rs`) pins this.

use crate::extended::{assemble_outcome, run_steps_for_object, ExtendedOutcome, ObjectSteps};
use crate::gravity::Workspace;
use crate::mapping::{MappingError, MappingOptions};
use hbn_topology::Network;
use hbn_workload::AccessMatrix;

/// The batched static-placement kernel: runs the full extended-nibble
/// pipeline (gravity → nibble → deletion → mapping) over all objects of
/// an access matrix, with all scratch owned by the kernel and reused
/// across calls.
///
/// Output is bit-for-bit identical to [`crate::ExtendedNibble::place`].
///
/// ```
/// use hbn_core::{ExtendedNibble, PlacementKernel};
/// use hbn_topology::generators::{balanced, BandwidthProfile};
/// use hbn_workload::{AccessMatrix, ObjectId};
///
/// // A small balanced topology: 2 children per bus, height 2.
/// let net = balanced(2, 2, BandwidthProfile::Uniform);
/// let p = net.processors();
/// let mut m = AccessMatrix::new(2);
/// m.add(p[0], ObjectId(0), 6, 1);
/// m.add(p[3], ObjectId(0), 5, 1);
/// m.add(p[1], ObjectId(1), 2, 2);
///
/// // The batch kernel reproduces the per-object path exactly...
/// let mut kernel = PlacementKernel::new(&net);
/// let batch = kernel.place(&net, &m).unwrap();
/// let per_object = ExtendedNibble::new().place(&net, &m).unwrap();
/// assert_eq!(batch.placement, per_object.placement);
/// assert_eq!(batch.mapping.tau_max, per_object.mapping.tau_max);
///
/// // ...and its scratch is reused across batches: the second call on the
/// // same kernel (e.g. the next re-optimization epoch) is equally exact.
/// assert_eq!(kernel.place(&net, &m).unwrap().placement, batch.placement);
/// assert!(batch.placement.is_leaf_only(&net));
/// ```
#[derive(Debug)]
pub struct PlacementKernel {
    /// Mapping-phase options (invariant checking, free-edge policy).
    mapping: MappingOptions,
    /// Epoch-stamped scratch for the gravity/nibble walks.
    ws: Workspace,
    /// Steps 1–2 output, in object-id order (drained by every batch; its
    /// capacity stays at the high-water object count).
    out: Vec<ObjectSteps>,
    /// Node count of the network the kernel was built for (asserted on
    /// every batch).
    n_nodes: usize,
}

impl Clone for PlacementKernel {
    /// Cloning copies the kernel's *configuration* (mapping options,
    /// network size) and gives the clone fresh, empty scratch. The
    /// scratch is an allocation cache, not state — a clone's
    /// [`PlacementKernel::place`] output is identical to the original's —
    /// so this is exactly what a strategy checkpoint needs.
    fn clone(&self) -> Self {
        PlacementKernel {
            mapping: self.mapping,
            ws: Workspace::new(self.n_nodes),
            out: Vec::new(),
            n_nodes: self.n_nodes,
        }
    }
}

impl PlacementKernel {
    /// A batch kernel for `net` with default mapping options.
    pub fn new(net: &Network) -> Self {
        Self::with_options(net, MappingOptions::default())
    }

    /// [`PlacementKernel::new`] with explicit mapping-phase options.
    pub fn with_options(net: &Network, mapping: MappingOptions) -> Self {
        PlacementKernel {
            mapping,
            ws: Workspace::new(net.n_nodes()),
            out: Vec::new(),
            n_nodes: net.n_nodes(),
        }
    }

    /// Run the full static pipeline over all objects of `matrix`,
    /// reusing the kernel's scratch. Bit-for-bit equal to
    /// [`crate::ExtendedNibble::place`] with the same mapping options.
    pub fn place(
        &mut self,
        net: &Network,
        matrix: &AccessMatrix,
    ) -> Result<ExtendedOutcome, MappingError> {
        assert_eq!(net.n_nodes(), self.n_nodes, "network mismatch");
        self.out.clear();
        for x in matrix.objects() {
            self.out.push(run_steps_for_object(net, matrix, x, &mut self.ws));
        }
        assemble_outcome(net, matrix, self.out.drain(..), &self.mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_topology::generators::{balanced, star, BandwidthProfile};

    #[test]
    fn empty_matrix_yields_empty_placement() {
        let net = star(4, 4);
        let m = hbn_workload::AccessMatrix::new(0);
        let mut kernel = PlacementKernel::new(&net);
        let out = kernel.place(&net, &m).unwrap();
        assert_eq!(out.placement.total_copies(), 0);
    }

    #[test]
    #[should_panic(expected = "network mismatch")]
    fn network_mismatch_is_rejected() {
        let net = star(4, 4);
        let other = balanced(3, 2, BandwidthProfile::Uniform);
        let m = hbn_workload::AccessMatrix::new(1);
        let mut kernel = PlacementKernel::new(&net);
        let _ = kernel.place(&other, &m);
    }
}
