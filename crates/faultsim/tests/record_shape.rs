//! Regression tests for the checkpoint shape rule.
//!
//! A unit record carries one verdict per fault of its 64-fault chunk.
//! or1200_icfsm has 374 faults, so chunks 0–4 hold 64 faults and the
//! last chunk of each workload holds 54. Each test below replaces one
//! unit's record with a CRC-valid record of the wrong length and checks
//! that all three consumers of the checkpoint reader agree it is
//! damaged: `fsck` reports it with a cause naming the count, `--resume`
//! reruns the unit and reproduces an uninterrupted run, and `fusa
//! merge` skips the line.

use fusa_faultsim::{
    fsck_path, merge_checkpoints, CampaignConfig, CampaignReport, DurabilityConfig, FaultCampaign,
    FaultList, FsckOptions,
};
use fusa_logicsim::{WorkloadConfig, WorkloadSuite};
use fusa_netlist::Netlist;
use std::fs;
use std::path::{Path, PathBuf};

struct Fixture {
    netlist: Netlist,
    faults: FaultList,
    workloads: WorkloadSuite,
}

impl Fixture {
    fn new() -> Fixture {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let faults = FaultList::all_gate_outputs(&netlist);
        assert_eq!(faults.len(), 374, "the shape cases assume 374 faults");
        let workloads = WorkloadSuite::generate(
            &netlist,
            &WorkloadConfig {
                num_workloads: 2,
                vectors_per_workload: 16,
                reset_cycles: 0,
                seed: 3,
            },
        );
        Fixture {
            netlist,
            faults,
            workloads,
        }
    }

    fn run(&self, checkpoint: &Path, resume: bool) -> CampaignReport {
        FaultCampaign::new(CampaignConfig::default())
            .with_durability(DurabilityConfig {
                checkpoint: Some(checkpoint.to_path_buf()),
                resume,
                ..Default::default()
            })
            .run(&self.netlist, &self.faults, &self.workloads)
            .expect("campaign runs")
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fusa_shape_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A record for `unit` with `outcomes` Benign verdicts whose digest is
/// valid, built the way the checkpoint writer digests a record.
fn crafted_record(unit: usize, outcomes: usize) -> String {
    let verdicts = "B".repeat(outcomes);
    let divergence = vec!["-1"; outcomes].join(",");
    let crc = fusa_obs::fnv1a64_hex(format!("{unit}|{verdicts}|{divergence}|10|100").as_bytes());
    format!(
        "{{\"unit\":{unit},\"outcomes\":\"{verdicts}\",\"first_divergence\":[{divergence}],\
         \"stepped_fault_cycles\":10,\"gate_evals\":100,\"crc\":\"{crc}\"}}"
    )
}

/// Replaces the record of `unit` in checkpoint `path`; returns the
/// 1-based line number of the replacement.
fn replace_record(path: &Path, unit: usize, record: &str) -> usize {
    let text = fs::read_to_string(path).expect("read checkpoint");
    let prefix = format!("{{\"unit\":{unit},");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let index = lines
        .iter()
        .position(|line| line.starts_with(&prefix))
        .expect("unit is recorded");
    lines[index] = record.to_string();
    fs::write(path, format!("{}\n", lines.join("\n"))).expect("write checkpoint");
    index + 1
}

fn check_crafted_record(tag: &str, unit: usize, outcomes: usize, chunk_len: usize) {
    let fixture = Fixture::new();
    let dir = temp_dir(tag);
    let reference_path = dir.join("reference.jsonl");
    let reference = fixture.run(&reference_path, false);
    let unit_count = reference.stats().units;

    let crafted = dir.join("crafted.jsonl");
    fs::copy(&reference_path, &crafted).expect("copy checkpoint");
    let line = replace_record(&crafted, unit, &crafted_record(unit, outcomes));

    // fsck: the line is damage, and the cause names both counts.
    let report = fsck_path(&crafted, &FsckOptions::default()).expect("fsck runs");
    assert!(!report.sound(), "fsck called the crafted record clean");
    assert_eq!(report.issues.len(), 1, "{:?}", report.issues);
    let issue = &report.issues[0];
    assert_eq!((issue.line, issue.unit), (Some(line), Some(unit)));
    assert!(
        issue.cause.contains(&format!("{outcomes} outcomes"))
            && issue.cause.contains(&format!("{chunk_len} faults")),
        "{}",
        issue.cause
    );
    assert_eq!(report.missing_units, vec![unit]);

    // merge: the line is skipped; the clean input covers the unit.
    let outcome = merge_checkpoints(
        &[crafted.clone(), reference_path],
        &dir.join("merged.jsonl"),
    )
    .expect("merge succeeds");
    assert_eq!(outcome.skipped_lines, 1);
    assert_eq!(outcome.sources[0].units, unit_count - 1);

    // resume: the unit runs again and the labels equal the reference.
    let resumed = fixture.run(&crafted, true);
    assert_eq!(resumed.stats().units_from_checkpoint, unit_count - 1);
    for (a, b) in reference
        .workload_reports()
        .iter()
        .zip(resumed.workload_reports())
    {
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.first_divergence, b.first_divergence);
    }
    assert_eq!(reference.summary_opts(false), resumed.summary_opts(false));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn overlong_record_for_the_short_last_chunk_is_damage() {
    // Unit 5 is workload 0's last chunk: 54 faults, not 64.
    check_crafted_record("overlong", 5, 64, 54);
}

#[test]
fn short_record_for_a_full_chunk_is_damage() {
    check_crafted_record("short", 0, 10, 64);
}
