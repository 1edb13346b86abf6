//! Hostile-input property tests for the durable-state readers.
//!
//! A checkpoint, a run manifest and a status snapshot are all read back
//! from disk, where a crash, a full disk or a careless edit can leave
//! anything. Each reader must answer arbitrary bytes — and single-byte
//! mutations of a valid document, which stay close enough to the format
//! to reach the deeper checks — with `Ok` or a typed error, never a
//! panic. A panic here would take down `--resume`, `fusa merge`,
//! `fusa fsck`, `fusa report` or `fusa top` over one damaged file.

use fusa_faultsim::checkpoint::{self, CheckpointScan, LineKind};
use fusa_faultsim::{CampaignConfig, CheckpointError, DurabilityConfig, FaultCampaign, FaultList};
use fusa_logicsim::{WorkloadConfig, WorkloadSuite};
use fusa_obs::{
    HistogramSummary, MergeSourceRecord, QuarantinedUnitRecord, RunManifest, ShardRecord,
    StageTime, StatusSnapshot,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::OnceLock;

/// A real checkpoint: or1200_icfsm, two short workloads, 12 units.
fn valid_checkpoint() -> &'static [u8] {
    static TEXT: OnceLock<Vec<u8>> = OnceLock::new();
    TEXT.get_or_init(|| {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let faults = FaultList::all_gate_outputs(&netlist);
        let workloads = WorkloadSuite::generate(
            &netlist,
            &WorkloadConfig {
                num_workloads: 2,
                vectors_per_workload: 8,
                reset_cycles: 0,
                seed: 3,
            },
        );
        let path = scratch_path("reference");
        FaultCampaign::new(CampaignConfig::default())
            .with_durability(DurabilityConfig {
                checkpoint: Some(path.clone()),
                ..Default::default()
            })
            .run(&netlist, &faults, &workloads)
            .expect("reference campaign runs");
        let text = std::fs::read(&path).expect("read reference checkpoint");
        let _ = std::fs::remove_file(&path);
        text
    })
}

/// A v4 manifest with every optional section populated.
fn valid_manifest() -> String {
    let mut manifest = RunManifest::new("faults-d-shard1of2", "fusa faults d", "d");
    manifest.created_unix = 1_754_000_000;
    manifest.wall_seconds = 2.5;
    manifest.threads = 2;
    manifest.interrupted = true;
    manifest.shard = Some(ShardRecord { index: 1, total: 2 });
    manifest.quarantined = vec![QuarantinedUnitRecord {
        unit: 3,
        workload: "w#0".into(),
        chunk: 1,
        attempts: 3,
        panic: "boom".into(),
    }];
    manifest.merged_from = vec![MergeSourceRecord {
        path: "s1.jsonl".into(),
        shard_index: Some(1),
        shard_total: Some(2),
        units: 6,
    }];
    manifest.peak_rss_bytes = Some(1 << 20);
    manifest.build = vec![("rustc".into(), "rustc 1.0".into())];
    manifest.config = vec![("workloads.num".into(), "2".into())];
    manifest.seeds = vec![("split".into(), 7)];
    manifest.stages = vec![StageTime {
        name: "campaign".into(),
        seconds: 2.0,
        count: 1,
    }];
    manifest.counters = vec![("campaign.units".into(), 12)];
    manifest.gauges = vec![("campaign.utilization".into(), 0.5)];
    manifest.histograms = vec![(
        "campaign.unit_seconds".into(),
        HistogramSummary {
            count: 12,
            sum: 1.2,
            min: 0.05,
            max: 0.2,
            p50: 0.1,
            p90: 0.15,
            p99: 0.2,
        },
    )];
    manifest.digests = vec![("criticality.csv".into(), "fnv1a64:0123456789abcdef".into())];
    manifest.to_json()
}

fn valid_status() -> String {
    StatusSnapshot {
        run_id: "faults-d".into(),
        design: "d".into(),
        shard: Some((1, 2)),
        pid: 42,
        phase: "campaign".into(),
        unit: "units".into(),
        done: 5,
        total: 12,
        work: 5_000,
        rate: 2.5,
        eta_seconds: 2.8,
        elapsed_seconds: 2.0,
        quarantined: 0,
        workers: 2,
        busy_fraction: 0.9,
        peak_rss_bytes: Some(1 << 20),
        updated_unix: 1_754_000_000.0,
        finished: false,
        degraded: false,
    }
    .to_json()
    .render()
}

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fusa_hostile_{tag}_{}.jsonl", std::process::id()))
}

/// `bytes` with the byte at `at` (wrapped to the length) replaced.
fn mutate(bytes: &[u8], at: usize, byte: u8) -> Vec<u8> {
    let mut mutated = bytes.to_vec();
    let len = mutated.len();
    mutated[at % len] = byte;
    mutated
}

/// Scans `bytes` written to a scratch checkpoint file.
fn scan_bytes(tag: &str, bytes: &[u8]) -> Result<CheckpointScan, CheckpointError> {
    let path = scratch_path(tag);
    std::fs::write(&path, bytes).expect("write scratch checkpoint");
    let result = checkpoint::scan(&path);
    let _ = std::fs::remove_file(&path);
    result
}

/// Scans `bytes` and returns the number of intact units, or `None` when
/// the header is corrupt. Any other error is wrong for a file that
/// exists, and an intact line must lie in the unit space and name a unit
/// no earlier intact line named.
fn check_scan(tag: &str, bytes: &[u8]) -> Result<Option<usize>, TestCaseError> {
    let scan = match scan_bytes(tag, bytes) {
        Ok(scan) => scan,
        Err(CheckpointError::Corrupt { .. }) => return Ok(None),
        Err(other) => return Err(TestCaseError::fail(format!("unexpected error {other}"))),
    };
    let units = scan.header.unit_count();
    let mut intact = BTreeSet::new();
    for kind in &scan.lines {
        if let LineKind::Intact { unit } = *kind {
            prop_assert!(unit < units, "intact unit {unit} of {units}");
            prop_assert!(intact.insert(unit), "unit {unit} intact twice");
        }
    }
    Ok(Some(intact.len()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_a_reader(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        check_scan("arbitrary", &bytes)?;
        let text = String::from_utf8_lossy(&bytes);
        let _ = RunManifest::parse(&text);
        let _ = StatusSnapshot::parse(&text);
    }

    #[test]
    fn mutated_checkpoints_scan_to_ok_or_a_typed_error(at: usize, byte: u8) {
        // One byte damages at most the two records it can touch (a new
        // newline splits one line; a lost one joins two).
        if let Some(intact) = check_scan("mutated", &mutate(valid_checkpoint(), at, byte))? {
            prop_assert!(intact >= 10, "only {intact} of 12 units survived one byte");
        }
    }

    #[test]
    fn mutated_manifests_and_status_parse_to_ok_or_a_typed_error(at: usize, byte: u8) {
        let manifest = mutate(valid_manifest().as_bytes(), at, byte);
        let _ = RunManifest::parse(&String::from_utf8_lossy(&manifest));
        let status = mutate(valid_status().as_bytes(), at, byte);
        let _ = StatusSnapshot::parse(&String::from_utf8_lossy(&status));
    }
}

#[test]
fn the_valid_documents_parse() {
    let scan = scan_bytes("valid", valid_checkpoint()).expect("valid checkpoint scans");
    assert_eq!(scan.lines.len(), 12);
    assert!(scan
        .lines
        .iter()
        .all(|kind| matches!(kind, LineKind::Intact { .. })));
    assert!(RunManifest::parse(&valid_manifest()).is_ok());
    assert!(StatusSnapshot::parse(&valid_status()).is_ok());
}

#[test]
fn deep_nesting_is_a_typed_error() {
    let deep = "[".repeat(1_000_000);
    assert!(RunManifest::parse(&deep).is_err());
    assert!(StatusSnapshot::parse(&deep).is_err());
    let header_end = valid_checkpoint()
        .iter()
        .position(|&b| b == b'\n')
        .expect("header line");
    let mut checkpoint = valid_checkpoint()[..=header_end].to_vec();
    checkpoint.extend_from_slice(deep.as_bytes());
    let scan = scan_bytes("deep", &checkpoint).expect("header is intact");
    assert_eq!(scan.lines.len(), 1);
    assert!(matches!(scan.lines[0], LineKind::Damaged { .. }));
}
