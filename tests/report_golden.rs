//! Golden-file tests pinning the `fusa report` rendering byte-for-byte.
//!
//! The rendered breakdown is part of the reproduction playbook
//! (EXPERIMENTS.md tells readers what to expect from a manifest), so its
//! format is locked here: any intentional change to the renderer must
//! regenerate `tests/data/golden_report.txt` with
//! `fusa report tests/data/golden_manifest.json`.
//!
//! The fixture uses the current (and only) v4 schema. The manifests
//! checked in under `results/` must keep parsing and rendering too.

use fusa::obs::{render_manifest_report, RunManifest, MANIFEST_SCHEMA};

const GOLDEN_MANIFEST: &str = include_str!("data/golden_manifest.json");
const GOLDEN_REPORT: &str = include_str!("data/golden_report.txt");

#[test]
fn report_rendering_matches_golden_file() {
    let manifest = RunManifest::parse(GOLDEN_MANIFEST).expect("golden manifest parses");
    assert_eq!(render_manifest_report(&manifest), GOLDEN_REPORT);
}

#[test]
fn golden_manifest_round_trips() {
    let manifest = RunManifest::parse(GOLDEN_MANIFEST).expect("golden manifest parses");
    let reparsed = RunManifest::parse(&manifest.to_json()).expect("serialized form parses");
    assert_eq!(reparsed, manifest);
    // Serialization is a fixed point: render(parse(render(m))) == render(m).
    assert_eq!(reparsed.to_json(), manifest.to_json());
    // And the committed fixture IS the serialized form, byte for byte.
    assert_eq!(manifest.to_json(), GOLDEN_MANIFEST);
}

#[test]
fn golden_manifest_summary_fields() {
    let manifest = RunManifest::parse(GOLDEN_MANIFEST).expect("golden manifest parses");
    assert_eq!(manifest.design, "sdram_ctrl");
    assert_eq!(manifest.threads, 8);
    assert!(!manifest.interrupted);
    assert!(manifest.quarantined.is_empty());
    assert!((manifest.top_level_stage_seconds() - 2.3).abs() < 1e-12);
    assert!((manifest.stage_coverage() - 0.92).abs() < 1e-12);
    assert_eq!(manifest.histograms.len(), 3);
    assert_eq!(manifest.build.len(), 4);
    assert!(GOLDEN_MANIFEST.contains(MANIFEST_SCHEMA));
}

#[test]
fn checked_in_result_manifests_parse_and_render() {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut checked = 0;
    for entry in std::fs::read_dir(&results).expect("results/ is checked in") {
        let path = entry
            .expect("readable results/ entry")
            .path()
            .join("manifest.json");
        if !path.is_file() {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable manifest");
        let manifest = RunManifest::parse(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        let report = render_manifest_report(&manifest);
        assert!(
            report.contains(&manifest.design),
            "{}: report omits the design",
            path.display()
        );
        checked += 1;
    }
    assert!(
        checked >= 2,
        "expected the analyze and faults run dirs, found {checked}"
    );
}
