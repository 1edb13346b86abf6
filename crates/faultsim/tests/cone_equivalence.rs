//! Differential tests: the accelerated campaign hot path (cone
//! restriction, early exit, multi-threaded unit scheduling) must be
//! bit-identical to the naive reference campaign in `common`.
//!
//! The proptest generates random sequential netlists, injects every
//! stuck-at site (gate outputs *and* input pins), and compares every
//! `FaultOutcome` and every `first_divergence` cycle of each
//! acceleration configuration against the oracle. Any divergence is a
//! correctness bug in the cone/boundary/early-exit machinery, not a
//! tuning regression.

mod common;

use common::{assert_matches_oracle, reference_campaign};
use fusa_faultsim::{CampaignConfig, CampaignReport, FaultCampaign, FaultList};
use fusa_logicsim::{WorkloadConfig, WorkloadSuite};
use fusa_netlist::designs::{random_netlist, RandomNetlistConfig};
use fusa_netlist::Netlist;
use proptest::prelude::*;

fn workloads_for(netlist: &Netlist, seed: u64) -> WorkloadSuite {
    WorkloadSuite::generate(
        netlist,
        &WorkloadConfig {
            num_workloads: 2,
            vectors_per_workload: 24,
            reset_cycles: 0,
            seed,
        },
    )
}

fn run_with(
    netlist: &Netlist,
    faults: &FaultList,
    workloads: &WorkloadSuite,
    threads: usize,
    restrict_to_cone: bool,
    early_exit: bool,
    classify_latent: bool,
) -> CampaignReport {
    FaultCampaign::new(CampaignConfig {
        threads,
        classify_latent,
        min_divergence_fraction: 0.0,
        restrict_to_cone,
        early_exit,
        // One chunk per pass, so every chunk gets its own cone; the
        // wider packings live in tests/lane_equivalence.rs.
        lane_words: 1,
        shard: None,
    })
    .run(netlist, faults, workloads)
    .expect("campaign runs")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Cone-restricted simulation, early exit, and the threaded unit
    /// queue are all bit-identical to the naive reference campaign — on
    /// random netlists, over every stuck-at site including input pins,
    /// with latent classification on or off.
    #[test]
    fn accelerated_campaign_is_bit_identical_on_random_netlists(
        seed in 0u64..1u64 << 48,
        num_gates in 40usize..120,
        sequential_fraction in 0.05f64..0.4,
        classify_latent in any::<bool>(),
    ) {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_inputs: 6,
            num_gates,
            sequential_fraction,
            num_outputs: 5,
            seed,
        });
        // Input-pin faults included: cones rooted at the faulty gate
        // must cover pin-fault propagation too.
        let faults = FaultList::all_sites(&netlist);
        let workloads = workloads_for(&netlist, seed ^ 0x570C4);

        let oracle = reference_campaign(&netlist, &faults, &workloads, classify_latent, 0.0);
        for threads in [1usize, 4] {
            for restrict_to_cone in [false, true] {
                for early_exit in [false, true] {
                    let candidate = run_with(
                        &netlist, &faults, &workloads,
                        threads, restrict_to_cone, early_exit, classify_latent,
                    );
                    assert_matches_oracle(
                        &format!(
                            "threads={threads} cone={restrict_to_cone} early_exit={early_exit} latent={classify_latent}"
                        ),
                        &oracle,
                        &candidate,
                    );
                }
            }
        }
    }
}

/// The four built-in designs, checked once each (cheap config): the
/// proptest covers the space, this pins the real designs CI actually
/// ships.
#[test]
fn builtin_designs_cone_on_off_agree() {
    for netlist in fusa_netlist::designs::all_designs() {
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = workloads_for(&netlist, 7);
        let oracle = reference_campaign(&netlist, &faults, &workloads, true, 0.0);
        for (threads, accelerated) in [(1, false), (4, true)] {
            let candidate = run_with(
                &netlist,
                &faults,
                &workloads,
                threads,
                accelerated,
                accelerated,
                true,
            );
            assert_matches_oracle(
                &format!("{} accelerated={accelerated}", netlist.name()),
                &oracle,
                &candidate,
            );
        }
    }
}

/// A nonzero Dangerous threshold changes which lanes early exit may
/// stop on; every width must still match the oracle's threshold rule.
#[test]
fn divergence_threshold_matches_oracle() {
    let netlist = fusa_netlist::designs::or1200_icfsm();
    let faults = FaultList::all_gate_outputs(&netlist);
    let workloads = workloads_for(&netlist, 11);
    for min_divergence_fraction in [0.05, 0.25, 0.9] {
        let oracle =
            reference_campaign(&netlist, &faults, &workloads, true, min_divergence_fraction);
        for lane_words in [1usize, 4] {
            let candidate = FaultCampaign::new(CampaignConfig {
                threads: 2,
                min_divergence_fraction,
                lane_words,
                ..CampaignConfig::default()
            })
            .run(&netlist, &faults, &workloads)
            .expect("campaign runs");
            assert_matches_oracle(
                &format!("fraction={min_divergence_fraction} W={lane_words}"),
                &oracle,
                &candidate,
            );
        }
    }
}
