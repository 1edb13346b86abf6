//! Differential tests: the wide `[u64; W]` structure-of-arrays kernel
//! must be bit-identical to the naive `BitSim` reference campaign in
//! `common`.
//!
//! The proptest generates random sequential netlists, injects every
//! stuck-at site (gate outputs *and* input pins), and compares every
//! `FaultOutcome` and every `first_divergence` cycle between the oracle
//! and each wide width, across thread counts and the cone/early-exit
//! accelerations. A second property checks durability: a checkpoint
//! written at one lane width resumes bit-identically at another,
//! because the checkpoint unit is always the 64-fault chunk regardless
//! of how many chunks a pass packs.

mod common;

use common::{assert_matches_oracle, reference_campaign};
use fusa_faultsim::{
    CampaignConfig, CampaignReport, DurabilityConfig, FaultCampaign, FaultInjection, FaultList,
};
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
    lane_words: usize,
) -> CampaignReport {
    FaultCampaign::new(CampaignConfig {
        threads,
        classify_latent: true,
        min_divergence_fraction: 0.0,
        restrict_to_cone,
        early_exit,
        lane_words,
        shard: None,
    })
    .run(netlist, faults, workloads)
    .expect("campaign runs")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Every wide width, under every acceleration combination and
    /// thread count, reproduces the oracle bit for bit — on random
    /// netlists over every stuck-at site including input pins.
    #[test]
    fn wide_kernel_is_bit_identical_to_oracle(
        seed in 0u64..1u64 << 48,
        num_gates in 40usize..120,
        sequential_fraction in 0.05f64..0.4,
    ) {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_inputs: 6,
            num_gates,
            sequential_fraction,
            num_outputs: 5,
            seed,
        });
        let faults = FaultList::all_sites(&netlist);
        let workloads = workloads_for(&netlist, seed ^ 0x1A9E5);

        let oracle = reference_campaign(&netlist, &faults, &workloads, true, 0.0);
        for lane_words in [1usize, 4, 8] {
            for threads in [1usize, 4] {
                for (restrict_to_cone, early_exit) in [(false, false), (true, true)] {
                    let candidate = run_with(
                        &netlist, &faults, &workloads,
                        threads, restrict_to_cone, early_exit, lane_words,
                    );
                    assert_matches_oracle(
                        &format!(
                            "W={lane_words} threads={threads} cone={restrict_to_cone} early_exit={early_exit}"
                        ),
                        &oracle,
                        &candidate,
                    );
                }
            }
        }
    }

    /// A `--lanes 512` (`lane_words: 8`) resume of a checkpoint written
    /// by a `--lanes 64` (`lane_words: 1`) run matches the oracle and
    /// summarizes identically to an uninterrupted campaign, wherever the
    /// interruption lands.
    #[test]
    fn resume_across_lane_widths_is_bit_identical(
        seed in 0u64..1u64 << 48,
        num_gates in 40usize..100,
        interrupt_after in 1usize..6,
    ) {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_inputs: 6,
            num_gates,
            sequential_fraction: 0.2,
            num_outputs: 5,
            seed,
        });
        let faults = FaultList::all_sites(&netlist);
        let workloads = workloads_for(&netlist, seed ^ 0xCAFE);
        let oracle = reference_campaign(&netlist, &faults, &workloads, true, 0.0);
        let uninterrupted = run_with(&netlist, &faults, &workloads, 1, true, true, 4);

        let path = std::env::temp_dir().join(format!(
            "fusa_lane_equivalence_{}_{seed:x}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let partial = FaultCampaign::new(CampaignConfig {
            threads: 1,
            lane_words: 1,
            ..CampaignConfig::default()
        })
        .with_durability(DurabilityConfig {
            checkpoint: Some(path.clone()),
            ..DurabilityConfig::default()
        })
        .with_injection(FaultInjection {
            interrupt_after_units: Some(interrupt_after),
            ..FaultInjection::default()
        })
        .run(&netlist, &faults, &workloads)
        .expect("partial campaign runs");
        prop_assert!(partial.interrupted());

        let resumed = FaultCampaign::new(CampaignConfig {
            threads: 2,
            lane_words: 8,
            ..CampaignConfig::default()
        })
        .with_durability(DurabilityConfig {
            checkpoint: Some(path.clone()),
            resume: true,
            ..DurabilityConfig::default()
        })
        .run(&netlist, &faults, &workloads)
        .expect("resumed campaign runs");
        std::fs::remove_file(&path).ok();

        prop_assert!(!resumed.interrupted());
        prop_assert!(resumed.stats().units_from_checkpoint >= interrupt_after);
        assert_matches_oracle("lane 1 -> lane 8 resume", &oracle, &resumed);
        prop_assert_eq!(uninterrupted.summary_opts(false), resumed.summary_opts(false));
    }
}

/// The built-in designs, checked once per width (cheap config): the
/// proptest covers the space, this pins the real designs CI ships.
#[test]
fn builtin_designs_all_widths_agree() {
    for netlist in fusa_netlist::designs::all_designs() {
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = workloads_for(&netlist, 7);
        let oracle = reference_campaign(&netlist, &faults, &workloads, true, 0.0);
        for lane_words in [1usize, 4, 8] {
            let wide = run_with(&netlist, &faults, &workloads, 4, true, true, lane_words);
            assert_matches_oracle(
                &format!("{} W={lane_words}", netlist.name()),
                &oracle,
                &wide,
            );
        }
    }

    // Every stuck-at site, input pins included, on one real design and
    // with the accelerations both on and off.
    let netlist = fusa_netlist::designs::or1200_icfsm();
    let faults = FaultList::all_sites(&netlist);
    let workloads = workloads_for(&netlist, 42);
    let oracle = reference_campaign(&netlist, &faults, &workloads, true, 0.0);
    for lane_words in [1usize, 4, 8] {
        for accelerated in [true, false] {
            let wide = run_with(
                &netlist,
                &faults,
                &workloads,
                2,
                accelerated,
                accelerated,
                lane_words,
            );
            assert_eq!(wide.stats().lane_words, lane_words);
            assert_matches_oracle(
                &format!("or1200_icfsm all sites W={lane_words} accelerated={accelerated}"),
                &oracle,
                &wide,
            );
        }
    }
}

/// The synthetic scaling designs run the wide kernel too: a generator
/// output at the wide widths matches the oracle on its gate-output
/// fault list.
#[test]
fn synthetic_design_widths_agree() {
    let netlist =
        fusa_netlist::designs::synthetic_design(&fusa_netlist::designs::SyntheticConfig {
            name: "lane_probe".to_string(),
            datapath_width: 16,
            pipeline_stages: 10,
            banks: 2,
            bank_counter_bits: 4,
            seed: 3,
        });
    let faults = FaultList::all_gate_outputs(&netlist);
    let workloads = workloads_for(&netlist, 11);
    let oracle = reference_campaign(&netlist, &faults, &workloads, true, 0.0);
    for lane_words in [4usize, 8] {
        let wide = run_with(&netlist, &faults, &workloads, 2, true, true, lane_words);
        assert_matches_oracle(&format!("synthetic W={lane_words}"), &oracle, &wide);
    }
}
