//! Differential suite for the batched static-placement kernel: the
//! [`PlacementKernel`] must be bit-for-bit identical to the per-object
//! [`ExtendedNibble::place`] path, including when one kernel's scratch is
//! reused across successive batches of different sizes.

use hbn_core::{ExtendedNibble, PlacementKernel};
use hbn_testutil::{arb_instance, workload_from_seed};
use hbn_topology::generators::{balanced, random_network, BandwidthProfile};
use hbn_topology::Network;
use hbn_workload::AccessMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Assert full outcome equality: every placement stage, the gravity
/// centers, the mapping bound and the counters.
fn assert_outcomes_equal(net: &Network, m: &AccessMatrix, kernel: &mut PlacementKernel) {
    let per_object = ExtendedNibble::new().place(net, m).expect("per-object path");
    let batch = kernel.place(net, m).expect("batch path");
    assert_eq!(batch.placement, per_object.placement, "final placement");
    assert_eq!(batch.nibble_placement, per_object.nibble_placement, "nibble placement");
    assert_eq!(batch.modified_placement, per_object.modified_placement, "modified placement");
    assert_eq!(batch.gravity, per_object.gravity, "gravity centers");
    assert_eq!(batch.mapping.tau_max, per_object.mapping.tau_max, "tau_max");
    assert_eq!(batch.stats, per_object.stats, "stats");
    batch.placement.validate(net, m).unwrap();
    assert!(batch.placement.is_leaf_only(net));
}

#[test]
fn batch_matches_per_object_on_random_instances() {
    let mut rng = StdRng::seed_from_u64(101);
    for round in 0..25 {
        let net = random_network(6, 12, BandwidthProfile::Uniform, &mut rng);
        let m = hbn_workload::generators::uniform(&net, 7, 6, 4, 0.6, &mut rng);
        let mut kernel = PlacementKernel::new(&net);
        assert_outcomes_equal(&net, &m, &mut kernel);
        let _ = round;
    }
}

#[test]
fn kernel_reuse_across_epochs_stays_exact() {
    // One kernel, many successive batches over *different* matrices (the
    // periodic re-optimization pattern): stale scratch must never leak
    // between batches. The object count varies, so the reused output
    // buffer both shrinks and grows between batches.
    let net = balanced(3, 2, BandwidthProfile::Uniform);
    let mut kernel = PlacementKernel::new(&net);
    let object_counts = [6usize, 1, 9, 0, 3, 12, 6, 2, 11, 4, 7, 5];
    for (seed, &n_objects) in object_counts.iter().enumerate() {
        let m = workload_from_seed(&net, n_objects, 7, 4, 0.7, seed as u64);
        assert_outcomes_equal(&net, &m, &mut kernel);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The batch kernel equals the per-object path on arbitrary instances.
    #[test]
    fn batch_equals_per_object((net, m) in arb_instance(5, 10, 5)) {
        let per_object = ExtendedNibble::new().place(&net, &m).unwrap();
        let batch = PlacementKernel::new(&net).place(&net, &m).unwrap().placement;
        prop_assert_eq!(batch, per_object.placement);
    }
}
