//! Naive reference campaign: the independent oracle the differential
//! tests hold `FaultCampaign` to.
//!
//! Every 64-fault chunk of every workload runs on `BitSim` over the full
//! netlist, one fault per lane, next to its own fault-free `BitSim`. There
//! is no fanout cone, no early exit, no wide word, no golden trace and no
//! checkpointing: this shares nothing with the campaign engine beyond the
//! `BitSim` kernel and the fault and outcome types, and it spells out the
//! classification rules itself.

use fusa_faultsim::{CampaignReport, FaultList, FaultOutcome, FaultSite, WorkloadReport};
use fusa_logicsim::{BitSim, WorkloadSuite};
use fusa_netlist::Netlist;

/// Classifies every fault under every workload, in suite order:
///
/// * a fault's *divergent cycles* are the cycles in which any primary
///   output differs from the fault-free machine, and `first_divergence`
///   is the earliest of them;
/// * **Dangerous** when it diverges in at least
///   `max(1, ceil(min_divergence_fraction · cycles))` cycles;
/// * **Latent** when it diverges in fewer cycles, or (with
///   `classify_latent`) when any flip-flop differs after the last cycle;
/// * **Benign** otherwise.
pub fn reference_campaign(
    netlist: &Netlist,
    faults: &FaultList,
    workloads: &WorkloadSuite,
    classify_latent: bool,
    min_divergence_fraction: f64,
) -> Vec<WorkloadReport> {
    let output_count = netlist.primary_outputs().len();
    let flops = netlist.sequential_gates();
    workloads
        .workloads()
        .iter()
        .map(|workload| {
            let dangerous_cycles =
                ((min_divergence_fraction * workload.len() as f64).ceil() as u32).max(1);
            let mut outcomes = Vec::with_capacity(faults.len());
            let mut first_divergence = Vec::with_capacity(faults.len());
            for chunk in faults.faults().chunks(64) {
                let mut golden = BitSim::new(netlist);
                let mut faulty = BitSim::new(netlist);
                for (lane, fault) in chunk.iter().enumerate() {
                    let stuck_high = fault.stuck_at.value();
                    match fault.site {
                        FaultSite::Output => faulty.force_lanes(fault.net, stuck_high, 1 << lane),
                        FaultSite::InputPin(pin) => {
                            faulty.force_pin_lanes(fault.gate, pin, stuck_high, 1 << lane)
                        }
                    }
                }
                let mut golden_out = vec![0u64; output_count];
                let mut faulty_out = vec![0u64; output_count];
                let mut divergent_cycles = vec![0u32; chunk.len()];
                let mut first = vec![None; chunk.len()];
                for (cycle, vector) in workload.vectors.iter().enumerate() {
                    golden.step_broadcast_into(vector, &mut golden_out);
                    faulty.step_broadcast_into(vector, &mut faulty_out);
                    let mismatch = golden_out
                        .iter()
                        .zip(&faulty_out)
                        .fold(0u64, |acc, (g, f)| acc | (g ^ f));
                    for lane in 0..chunk.len() {
                        if mismatch >> lane & 1 == 1 {
                            divergent_cycles[lane] += 1;
                            first[lane].get_or_insert(cycle as u32);
                        }
                    }
                }
                let state_differs = flops.iter().fold(0u64, |acc, &g| {
                    acc | (faulty.flop_lanes(g) ^ golden.flop_lanes(g))
                });
                for (lane, &cycles) in divergent_cycles.iter().enumerate() {
                    outcomes.push(if cycles >= dangerous_cycles {
                        FaultOutcome::Dangerous
                    } else if cycles > 0 || (classify_latent && state_differs >> lane & 1 == 1) {
                        FaultOutcome::Latent
                    } else {
                        FaultOutcome::Benign
                    });
                }
                first_divergence.extend(first);
            }
            WorkloadReport {
                workload_name: workload.name.clone(),
                outcomes,
                first_divergence,
            }
        })
        .collect()
}

/// Asserts that a campaign report agrees with the oracle on every
/// workload, outcome and first-divergence cycle.
pub fn assert_matches_oracle(context: &str, oracle: &[WorkloadReport], candidate: &CampaignReport) {
    let got = candidate.workload_reports();
    assert_eq!(oracle.len(), got.len(), "{context}: workload count");
    for (want, got) in oracle.iter().zip(got) {
        assert_eq!(
            want.workload_name, got.workload_name,
            "{context}: workload order"
        );
        assert_eq!(
            want.outcomes, got.outcomes,
            "{context}: outcomes differ in workload {}",
            want.workload_name
        );
        assert_eq!(
            want.first_divergence, got.first_divergence,
            "{context}: first_divergence differs in workload {}",
            want.workload_name
        );
    }
}
