//! `fusa-lint`: pass-based static analysis over validated gate-level
//! netlists.
//!
//! The linter audits designs for structural hazards (combinational
//! loops, floating nets, dead logic) and — central to the fault-
//! criticality flow — identifies *statically untestable stuck-at fault
//! sites*: gates whose output is provably constant, or from which no
//! primary output is reachable. Fault campaigns exclude these sites so
//! ground-truth criticality labels are not diluted by faults that no
//! workload could ever expose (§3.2 of the reproduced paper builds
//! labels from observed output corruption; untestable faults are
//! benign by construction).
//!
//! # Architecture
//!
//! * [`LintPass`] — a named, stateless analysis appending
//!   [`LintFinding`]s to a [`LintReport`];
//! * [`LintContext`] — shared dataflow facts (ternary constants,
//!   observability, reachability) computed once per design, plus SCOAP
//!   and cut-structure facts built on first use;
//! * [`all_passes`] / [`lint_netlist`] — the default pass registry and
//!   one-call entry point;
//! * [`untestable_stuck_at_sites`] — the machine-consumable summary the
//!   fault-injection pipeline uses to sanitize its fault list.
//!
//! # Example
//!
//! ```
//! use fusa_lint::lint_netlist;
//! use fusa_netlist::designs::or1200_icfsm;
//!
//! let report = lint_netlist(&or1200_icfsm());
//! assert_eq!(report.error_count(), 0);
//! println!("{}", report.render_text());
//! ```

pub mod context;
pub mod passes;
pub mod report;

pub use context::LintContext;
pub use report::{LintFinding, LintReport, LintSeverity};

use fusa_netlist::{GateId, Netlist};

/// A single static-analysis pass over a netlist.
///
/// Passes are stateless: all shared computation lives in the
/// [`LintContext`], so a pass is just a projection of those facts into
/// findings.
pub trait LintPass {
    /// Short kebab-case identifier (`const-gate`, `comb-loop`, …).
    fn name(&self) -> &'static str;

    /// One-line human-readable description.
    fn description(&self) -> &'static str;

    /// Appends this pass's findings to `report`.
    fn run(&self, ctx: &LintContext<'_>, report: &mut LintReport);
}

/// The default pass registry, in execution order.
pub fn all_passes() -> Vec<Box<dyn LintPass>> {
    vec![
        Box::new(passes::CombLoopPass),
        Box::new(passes::ConstGatePass),
        Box::new(passes::UnobservablePass),
        Box::new(passes::DeadGatePass),
        Box::new(passes::DuplicateGatePass),
        Box::new(passes::ConnectivityPass),
        Box::new(passes::FanoutProfilePass),
        Box::new(passes::RegisterDisciplinePass),
        Box::new(passes::ScoapControlPass),
        Box::new(passes::ScoapObservePass),
        Box::new(passes::StructuralSpofPass),
    ]
}

/// Runs every registered pass over `netlist` and returns the report.
pub fn lint_netlist(netlist: &Netlist) -> LintReport {
    run_passes(netlist, &all_passes())
}

/// Runs the given passes over `netlist`.
pub fn run_passes(netlist: &Netlist, passes: &[Box<dyn LintPass>]) -> LintReport {
    let obs = fusa_obs::global();
    let _span = obs.span("lint");
    // Status heartbeat over the pass pipeline (a no-op handle unless a
    // sink, --progress stderr or a status.json target is armed).
    let progress = fusa_obs::Progress::start(
        obs,
        "lint",
        "passes",
        passes.len() as u64,
        fusa_obs::ProgressConfig::default(),
    );
    let ctx = LintContext::new(netlist);
    let mut report = LintReport::new(netlist.name());
    for pass in passes {
        report.passes_run.push(pass.name());
        let begun = std::time::Instant::now();
        obs.time(pass.name(), || pass.run(&ctx, &mut report));
        obs.observe("lint.pass_seconds", begun.elapsed().as_secs_f64());
        progress.advance(1);
    }
    drop(progress);
    obs.add("lint.findings", report.findings.len() as u64);
    obs.add("lint.findings.error", report.error_count() as u64);
    obs.add("lint.findings.warning", report.warning_count() as u64);
    obs.add("lint.findings.info", report.info_count() as u64);
    report
}

/// Stuck-at fault sites that no workload can ever expose.
///
/// Returns `(gate, stuck_value)` pairs, sorted and deduplicated:
///
/// * a gate whose output is statically `v` contributes `(gate, v)` —
///   forcing the net to the value it already has changes nothing;
/// * a gate with no path to any primary output contributes both
///   polarities — the corruption can never be observed.
///
/// The fault-injection pipeline drops these sites from its campaign
/// fault list; the affected gates keep criticality score 0, exactly
/// what simulating them would have concluded, at zero cost.
pub fn untestable_stuck_at_sites(netlist: &Netlist) -> Vec<(GateId, bool)> {
    let ctx = LintContext::new(netlist);
    let mut sites = Vec::new();
    for i in 0..netlist.gate_count() {
        let gate = GateId(i as u32);
        if !ctx.is_observable(gate) {
            sites.push((gate, false));
            sites.push((gate, true));
            continue;
        }
        if let Some(v) = ctx.gate_const_value(gate) {
            sites.push((gate, v));
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusa_netlist::{designs, GateKind, NetlistBuilder};

    #[test]
    fn builtin_designs_are_error_clean() {
        // CI lints the built-in designs with `--deny warnings`, so they
        // must stay clean at Warning level too, not just Error.
        for netlist in designs::all_designs() {
            let report = lint_netlist(&netlist);
            assert!(
                !report.has_at_least(LintSeverity::Warning),
                "{}:\n{}",
                netlist.name(),
                report.render_text()
            );
            assert_eq!(report.passes_run.len(), all_passes().len());
        }
    }

    #[test]
    fn builtin_lint_csv_goldens() {
        // The CSV digests the run manifests record as `lint.csv`; any
        // change to a pass or to the analyses behind it moves them.
        let golden = [
            ("sdram_ctrl", "fnv1a64:04c2aa8b15ba20db"),
            ("or1200_if", "fnv1a64:a237a7462150af03"),
            ("or1200_icfsm", "fnv1a64:7133f6bd53335ce8"),
            ("uart_ctrl", "fnv1a64:0dd6f778c38c413e"),
        ];
        for (name, digest) in golden {
            let netlist = designs::all_designs()
                .into_iter()
                .find(|n| n.name() == name)
                .expect("built-in design");
            let csv = lint_netlist(&netlist).render_csv();
            assert_eq!(fusa_obs::fnv1a64_hex(csv.as_bytes()), digest, "{name}");
        }
    }

    #[test]
    fn untestable_sites_cover_constants_and_unobservables() {
        let mut b = NetlistBuilder::new("u");
        let a = b.primary_input("a");
        let one = b.gate_named("T1", GateKind::Tie1, &[]);
        let c = b.gate_named("CONST", GateKind::Or2, &[a, one]); // const 1
        let orphan = b.gate_named("ORPHAN", GateKind::Inv, &[a]); // unobservable
        let z = b.gate_named("Z", GateKind::And2, &[a, c]);
        let _ = orphan;
        b.primary_output("z", z);
        let n = b.finish().unwrap();
        let sites = untestable_stuck_at_sites(&n);
        let of = |name: &str| n.find_gate(name).unwrap();
        assert!(sites.contains(&(of("CONST"), true)));
        assert!(!sites.contains(&(of("CONST"), false)));
        assert!(sites.contains(&(of("ORPHAN"), false)));
        assert!(sites.contains(&(of("ORPHAN"), true)));
        // The observable, non-constant AND gate contributes nothing.
        assert!(!sites.iter().any(|&(g, _)| g == of("Z")));
        // The tie cell is constant: its same-polarity fault is untestable.
        assert!(sites.contains(&(of("T1"), true)));
    }

    #[test]
    fn pass_registry_names_are_unique() {
        let passes = all_passes();
        let mut names: Vec<&str> = passes.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), passes.len());
        assert!(passes.iter().all(|p| !p.description().is_empty()));
    }
}
