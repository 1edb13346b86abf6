//! The built-in lint passes.
//!
//! Each pass is a stateless [`LintPass`] implementation reading the
//! shared [`LintContext`] analyses and appending [`LintFinding`]s to
//! the report. Severity conventions:
//!
//! * `Error` — structural defects a validated netlist should never
//!   exhibit (combinational loops, undriven nets). These fire only on
//!   hand-constructed or externally parsed designs.
//! * `Warning` — suspicious structure a designer should review.
//! * `Info` — expected consequences of synthesis style (intentional
//!   constants, duplicate logic, fanout outliers, reset conventions)
//!   that still matter for fault-campaign ground truth.

use crate::context::LintContext;
use crate::report::{LintFinding, LintReport, LintSeverity};
use crate::LintPass;
use fusa_netlist::netlist::Driver;
use fusa_netlist::{combinational_loops, GateId, GateKind, Netlist, SCOAP_INF};
use std::collections::HashMap;

fn finding(
    pass: &'static str,
    code: &'static str,
    severity: LintSeverity,
    message: String,
) -> LintFinding {
    LintFinding {
        pass,
        code,
        severity,
        message,
        gate: None,
        net: None,
    }
}

fn gate_finding(
    netlist: &Netlist,
    gate: GateId,
    pass: &'static str,
    code: &'static str,
    severity: LintSeverity,
    message: String,
) -> LintFinding {
    let g = netlist.gate(gate);
    LintFinding {
        pass,
        code,
        severity,
        message,
        gate: Some(g.name.clone()),
        net: Some(netlist.net(g.output).name.clone()),
    }
}

/// L001: combinational loops (cycles not broken by a flip-flop).
///
/// Validated netlists are loop-free by construction, so a finding here
/// means the report was produced for a pre-validation design; it is
/// always an error.
pub struct CombLoopPass;

impl LintPass for CombLoopPass {
    fn name(&self) -> &'static str {
        "comb-loop"
    }

    fn description(&self) -> &'static str {
        "combinational cycles not broken by a flip-flop"
    }

    fn run(&self, ctx: &LintContext<'_>, report: &mut LintReport) {
        for component in combinational_loops(ctx.netlist) {
            let names: Vec<&str> = component
                .iter()
                .take(4)
                .map(|&g| ctx.netlist.gate(g).name.as_str())
                .collect();
            let ellipsis = if component.len() > 4 { ", …" } else { "" };
            let mut f = gate_finding(
                ctx.netlist,
                component[0],
                self.name(),
                "L001",
                LintSeverity::Error,
                format!(
                    "combinational loop through {} gate(s): {}{}",
                    component.len(),
                    names.join(", "),
                    ellipsis
                ),
            );
            f.net = None;
            report.findings.push(f);
        }
    }
}

/// L002: gates whose output is statically constant.
///
/// Found by exact ternary constant propagation. A stuck-at fault of the
/// same polarity as the constant is untestable (no workload can expose
/// it), so these sites are excluded from fault-campaign ground truth.
/// Intentional constant cells (`TIE0`/`TIE1`) are not reported.
pub struct ConstGatePass;

impl LintPass for ConstGatePass {
    fn name(&self) -> &'static str {
        "const-gate"
    }

    fn description(&self) -> &'static str {
        "gates statically stuck at 0/1 (untestable same-polarity faults)"
    }

    fn run(&self, ctx: &LintContext<'_>, report: &mut LintReport) {
        for (i, gate) in ctx.netlist.gates().iter().enumerate() {
            if gate.kind.is_constant() {
                continue;
            }
            let id = GateId(i as u32);
            if let Some(value) = ctx.gate_const_value(id) {
                let v = u8::from(value);
                report.findings.push(gate_finding(
                    ctx.netlist,
                    id,
                    self.name(),
                    "L002",
                    LintSeverity::Info,
                    format!(
                        "output is constant {v} under every input; stuck-at-{v} here is untestable"
                    ),
                ));
            }
        }
    }
}

/// L003: gates from which no primary output is reachable.
///
/// A fault at such a gate can never corrupt an output, in this or any
/// later clock cycle; both stuck-at polarities are untestable.
pub struct UnobservablePass;

impl LintPass for UnobservablePass {
    fn name(&self) -> &'static str {
        "unobservable"
    }

    fn description(&self) -> &'static str {
        "logic with no path to any primary output"
    }

    fn run(&self, ctx: &LintContext<'_>, report: &mut LintReport) {
        for (i, _) in ctx.netlist.gates().iter().enumerate() {
            let id = GateId(i as u32);
            if !ctx.is_observable(id) {
                report.findings.push(gate_finding(
                    ctx.netlist,
                    id,
                    self.name(),
                    "L003",
                    LintSeverity::Info,
                    "no path to any primary output; faults here are undetectable".to_string(),
                ));
            }
        }
    }
}

/// L004: gates unreachable from every primary input and flip-flop
/// output — their value is fixed at design time by constant cells.
pub struct DeadGatePass;

impl LintPass for DeadGatePass {
    fn name(&self) -> &'static str {
        "dead-gate"
    }

    fn description(&self) -> &'static str {
        "gates driven only by constant cones (no PI or register influence)"
    }

    fn run(&self, ctx: &LintContext<'_>, report: &mut LintReport) {
        for (i, gate) in ctx.netlist.gates().iter().enumerate() {
            if gate.kind.is_constant() {
                continue; // ties are intentional sources
            }
            let id = GateId(i as u32);
            if !ctx.is_reachable(id) {
                report.findings.push(gate_finding(
                    ctx.netlist,
                    id,
                    self.name(),
                    "L004",
                    LintSeverity::Info,
                    "driven only by constant cells; no primary input or register influences it"
                        .to_string(),
                ));
            }
        }
    }
}

/// L005: structurally duplicate gates — same cell, same input nets.
///
/// Symmetric cells (AND/OR/NAND/NOR/XOR/XNOR families) compare their
/// inputs as sets; asymmetric cells (MUX, AOI/OAI, flip-flops) compare
/// pin-for-pin.
pub struct DuplicateGatePass;

fn inputs_are_symmetric(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::And2
            | GateKind::And3
            | GateKind::And4
            | GateKind::Or2
            | GateKind::Or3
            | GateKind::Or4
            | GateKind::Nand2
            | GateKind::Nand3
            | GateKind::Nand4
            | GateKind::Nor2
            | GateKind::Nor3
            | GateKind::Nor4
            | GateKind::Xor2
            | GateKind::Xnor2
    )
}

impl LintPass for DuplicateGatePass {
    fn name(&self) -> &'static str {
        "duplicate-gate"
    }

    fn description(&self) -> &'static str {
        "gates computing the same function of the same nets"
    }

    fn run(&self, ctx: &LintContext<'_>, report: &mut LintReport) {
        let netlist = ctx.netlist;
        let mut seen: HashMap<(GateKind, Vec<u32>), GateId> = HashMap::new();
        for (i, gate) in netlist.gates().iter().enumerate() {
            if gate.kind.is_constant() {
                continue; // ties trivially collide; they carry no logic
            }
            let id = GateId(i as u32);
            let mut key: Vec<u32> = gate.inputs.iter().map(|n| n.0).collect();
            if inputs_are_symmetric(gate.kind) {
                key.sort_unstable();
            }
            match seen.entry((gate.kind, key)) {
                std::collections::hash_map::Entry::Occupied(first) => {
                    report.findings.push(gate_finding(
                        netlist,
                        id,
                        self.name(),
                        "L005",
                        LintSeverity::Info,
                        format!(
                            "structurally identical to gate {} ({} of the same nets)",
                            netlist.gate(*first.get()).name,
                            gate.kind.cell_name()
                        ),
                    ));
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(id);
                }
            }
        }
    }
}

/// L006/L007/L008: connectivity audits — undriven nets, gate outputs
/// that nothing reads, and unused primary inputs.
pub struct ConnectivityPass;

impl LintPass for ConnectivityPass {
    fn name(&self) -> &'static str {
        "connectivity"
    }

    fn description(&self) -> &'static str {
        "floating/undriven nets, unread outputs, unused primary inputs"
    }

    fn run(&self, ctx: &LintContext<'_>, report: &mut LintReport) {
        let netlist = ctx.netlist;
        for (i, net) in netlist.nets().iter().enumerate() {
            if net.driver.is_none() {
                let mut f = finding(
                    self.name(),
                    "L006",
                    LintSeverity::Error,
                    "net has no driver (floating)".to_string(),
                );
                f.net = Some(net.name.clone());
                report.findings.push(f);
            }
            let id = fusa_netlist::NetId(i as u32);
            if netlist.fanout_of_net(id).is_empty() && !netlist.is_primary_output(id) {
                match net.driver {
                    Some(Driver::Gate(g)) => {
                        report.findings.push(gate_finding(
                            netlist,
                            g,
                            self.name(),
                            "L007",
                            LintSeverity::Info,
                            "output net is read by nothing and is not a primary output".to_string(),
                        ));
                    }
                    Some(Driver::PrimaryInput) => {
                        let mut f = finding(
                            self.name(),
                            "L008",
                            LintSeverity::Warning,
                            "primary input is connected to nothing".to_string(),
                        );
                        f.net = Some(net.name.clone());
                        report.findings.push(f);
                    }
                    None => {}
                }
            }
        }
    }
}

/// L009: fanout outliers — gates whose fanout exceeds the design's mean
/// by more than four standard deviations (and at least 8).
///
/// High-fanout nodes concentrate fault criticality (a single stuck-at
/// fans out everywhere) and dominate the graph's degree distribution.
pub struct FanoutProfilePass;

impl LintPass for FanoutProfilePass {
    fn name(&self) -> &'static str {
        "fanout-profile"
    }

    fn description(&self) -> &'static str {
        "gates with outlier fanout (mean + 4 sigma, minimum 8)"
    }

    fn run(&self, ctx: &LintContext<'_>, report: &mut LintReport) {
        let netlist = ctx.netlist;
        let n = netlist.gate_count();
        if n == 0 {
            return;
        }
        let fanouts: Vec<usize> = (0..n)
            .map(|i| netlist.fanout_of_gate(GateId(i as u32)).len())
            .collect();
        let mean = fanouts.iter().sum::<usize>() as f64 / n as f64;
        let variance = fanouts
            .iter()
            .map(|&f| (f as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        let threshold = (mean + 4.0 * variance.sqrt()).max(8.0);
        for (i, &fanout) in fanouts.iter().enumerate() {
            if fanout as f64 > threshold {
                report.findings.push(gate_finding(
                    netlist,
                    GateId(i as u32),
                    self.name(),
                    "L009",
                    LintSeverity::Info,
                    format!(
                        "fanout {fanout} is an outlier (design mean {mean:.1}, \
                         threshold {threshold:.1})"
                    ),
                ));
            }
        }
    }
}

/// L010/L011: register discipline — flip-flops without a reset, and
/// reset-only flip-flops holding state through a combinational feedback
/// path with no enable pin to gate it.
pub struct RegisterDisciplinePass;

impl RegisterDisciplinePass {
    /// `true` if the D input of `ff` combinationally depends on the
    /// flip-flop's own output (a Q→D feedback path with no register in
    /// between).
    fn has_comb_feedback(netlist: &Netlist, ff: GateId) -> bool {
        let d_net = netlist.gate(ff).inputs[0];
        let mut stack: Vec<GateId> = match netlist.net(d_net).driver {
            Some(Driver::Gate(g)) => vec![g],
            _ => return false,
        };
        let mut visited = vec![false; netlist.gate_count()];
        while let Some(g) = stack.pop() {
            if g == ff {
                return true;
            }
            if visited[g.index()] || netlist.gate(g).kind.is_sequential() {
                continue;
            }
            visited[g.index()] = true;
            for pred in netlist.fanin_of_gate(g) {
                if pred == ff {
                    return true;
                }
                if !visited[pred.index()] && !netlist.gate(pred).kind.is_sequential() {
                    stack.push(pred);
                }
            }
        }
        false
    }
}

impl LintPass for RegisterDisciplinePass {
    fn name(&self) -> &'static str {
        "register-discipline"
    }

    fn description(&self) -> &'static str {
        "flip-flops without reset, and enable-less Q->D feedback"
    }

    fn run(&self, ctx: &LintContext<'_>, report: &mut LintReport) {
        let netlist = ctx.netlist;
        for ff in netlist.sequential_gates() {
            let kind = netlist.gate(ff).kind;
            if matches!(kind, GateKind::Dff | GateKind::Dffe) {
                report.findings.push(gate_finding(
                    netlist,
                    ff,
                    self.name(),
                    "L010",
                    LintSeverity::Info,
                    format!(
                        "{} has no reset; power-up state is undefined",
                        kind.cell_name()
                    ),
                ));
            }
            if matches!(kind, GateKind::Dff | GateKind::Dffr)
                && Self::has_comb_feedback(netlist, ff)
            {
                report.findings.push(gate_finding(
                    netlist,
                    ff,
                    self.name(),
                    "L011",
                    LintSeverity::Info,
                    "holds state through Q->D feedback logic instead of an enable pin".to_string(),
                ));
            }
        }
    }
}

/// Mean and mean-plus-four-sigma outlier threshold (with a floor) of a
/// sample, the same grading [`FanoutProfilePass`] uses.
fn outlier_stats(values: &[f64], floor: f64) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, floor);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let variance = values.iter().map(|&v| (v - mean).powi(2)).sum::<f64>() / n;
    (mean, (mean + 4.0 * variance.sqrt()).max(floor))
}

/// L012/L013: hard-to-control fault sites, graded by SCOAP
/// controllability of the gate's output net.
///
/// * L012 (`Warning`) — one output value has *infinite* SCOAP
///   controllability although constant propagation does not prove the
///   net constant: typically state held only through feedback with no
///   composable way to load it (locked at its power-on value).
/// * L013 (`Info`) — finite controllability that is an extreme outlier
///   for the design (mean + 4 sigma, minimum 32): faults here activate
///   so rarely that campaign labels for them carry little signal.
pub struct ScoapControlPass;

impl LintPass for ScoapControlPass {
    fn name(&self) -> &'static str {
        "scoap-control"
    }

    fn description(&self) -> &'static str {
        "hard-to-control fault sites (SCOAP CC0/CC1 grading)"
    }

    fn run(&self, ctx: &LintContext<'_>, report: &mut LintReport) {
        let netlist = ctx.netlist;
        let s = ctx.testability();
        let mut finite: Vec<f64> = Vec::new();
        for (i, gate) in netlist.gates().iter().enumerate() {
            if gate.kind.is_constant() {
                continue; // one-sided by design; L002 covers their cones
            }
            let id = GateId(i as u32);
            let (cc0, cc1) = (s.gate_cc0(netlist, id), s.gate_cc1(netlist, id));
            if cc0 == SCOAP_INF || cc1 == SCOAP_INF {
                if ctx.gate_const_value(id).is_none() {
                    let value = if cc0 == SCOAP_INF && cc1 == SCOAP_INF {
                        "either value".to_string()
                    } else {
                        format!("{}", u8::from(cc0 == SCOAP_INF))
                    };
                    report.findings.push(gate_finding(
                        netlist,
                        id,
                        self.name(),
                        "L012",
                        LintSeverity::Warning,
                        format!(
                            "no composable input sequence drives this output to {value}; \
                             logic is likely locked at its power-on state"
                        ),
                    ));
                }
            } else {
                finite.push(cc0.max(cc1) as f64);
            }
        }
        let (mean, threshold) = outlier_stats(&finite, 32.0);
        for (i, gate) in netlist.gates().iter().enumerate() {
            if gate.kind.is_constant() {
                continue;
            }
            let id = GateId(i as u32);
            let difficulty = s.gate_control_difficulty(netlist, id);
            if difficulty != SCOAP_INF && difficulty as f64 > threshold {
                report.findings.push(gate_finding(
                    netlist,
                    id,
                    self.name(),
                    "L013",
                    LintSeverity::Info,
                    format!(
                        "SCOAP controllability {difficulty} is an outlier \
                         (design mean {mean:.1}, threshold {threshold:.1})"
                    ),
                ));
            }
        }
    }
}

/// L014/L015: hard-to-observe fault sites, graded by SCOAP
/// observability of the gate's output net.
///
/// * L014 (`Info`) — a topological path to an output exists (the gate
///   is not L003-dead) but no SCOAP-sensitizable one: every path is
///   blocked by constants or per-gate-unsatisfiable side pins, so
///   faults here are unlikely to ever be detected. Info rather than
///   Warning because compositional sensitization is pessimistic under
///   reconvergence and fires on legitimate synthesized logic.
/// * L015 (`Info`) — finite observability that is an extreme outlier
///   (mean + 4 sigma, minimum 32).
pub struct ScoapObservePass;

impl LintPass for ScoapObservePass {
    fn name(&self) -> &'static str {
        "scoap-observe"
    }

    fn description(&self) -> &'static str {
        "hard-to-observe fault sites (SCOAP CO grading)"
    }

    fn run(&self, ctx: &LintContext<'_>, report: &mut LintReport) {
        let netlist = ctx.netlist;
        let s = ctx.testability();
        let mut finite: Vec<f64> = Vec::new();
        for (i, gate) in netlist.gates().iter().enumerate() {
            if gate.kind.is_constant() {
                continue;
            }
            let id = GateId(i as u32);
            let co = s.gate_co(netlist, id);
            if co == SCOAP_INF {
                if ctx.is_observable(id) && ctx.gate_const_value(id).is_none() {
                    report.findings.push(gate_finding(
                        netlist,
                        id,
                        self.name(),
                        "L014",
                        LintSeverity::Info,
                        "a path to an output exists but none is sensitizable; \
                         faults here will never be detected"
                            .to_string(),
                    ));
                }
            } else {
                finite.push(co as f64);
            }
        }
        let (mean, threshold) = outlier_stats(&finite, 32.0);
        for (i, gate) in netlist.gates().iter().enumerate() {
            if gate.kind.is_constant() {
                continue;
            }
            let id = GateId(i as u32);
            let co = s.gate_co(netlist, id);
            if co != SCOAP_INF && co as f64 > threshold {
                report.findings.push(gate_finding(
                    netlist,
                    id,
                    self.name(),
                    "L015",
                    LintSeverity::Info,
                    format!(
                        "SCOAP observability {co} is an outlier \
                         (design mean {mean:.1}, threshold {threshold:.1})"
                    ),
                ));
            }
        }
    }
}

/// L016: single-point-of-failure corridors — articulation points of the
/// gate graph that also post-dominate a significant share of the design
/// (at least 8 gates and 5% of the gate count).
///
/// Every fault in the dominated cone must traverse such a gate to reach
/// an output, so a fault *on* the gate itself shadows the whole cone's
/// criticality: a classic common-cause site for safety-mechanism
/// placement.
pub struct StructuralSpofPass;

impl LintPass for StructuralSpofPass {
    fn name(&self) -> &'static str {
        "structural-spof"
    }

    fn description(&self) -> &'static str {
        "articulation points post-dominating a large cone"
    }

    fn run(&self, ctx: &LintContext<'_>, report: &mut LintReport) {
        let netlist = ctx.netlist;
        let s = ctx.testability();
        let threshold = 8.max(netlist.gate_count() / 20) as u32;
        for i in 0..netlist.gate_count() {
            if !s.articulation[i] {
                continue;
            }
            let dominated = s.dominated[i];
            if dominated >= threshold {
                report.findings.push(gate_finding(
                    netlist,
                    GateId(i as u32),
                    self.name(),
                    "L016",
                    LintSeverity::Info,
                    format!(
                        "single-point-of-failure corridor: articulation point that \
                         {dominated} gate(s) must traverse to reach an output"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_netlist;
    use fusa_netlist::NetlistBuilder;

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report.findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn const_gate_flagged_with_polarity() {
        let mut b = NetlistBuilder::new("c");
        let a = b.primary_input("a");
        let one = b.gate(GateKind::Tie1, &[]);
        let or = b.gate_named("OR", GateKind::Or2, &[a, one]); // const 1
        b.primary_output("z", or);
        let report = lint_netlist(&b.finish().unwrap());
        let hits = report.findings_for_pass("const-gate");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].gate.as_deref(), Some("OR"));
        assert!(
            hits[0].message.contains("stuck-at-1"),
            "{}",
            hits[0].message
        );
    }

    #[test]
    fn tie_cells_themselves_not_flagged_constant() {
        let mut b = NetlistBuilder::new("t");
        let one = b.gate(GateKind::Tie1, &[]);
        let z = b.gate(GateKind::Buf, &[one]);
        b.primary_output("z", z);
        let report = lint_netlist(&b.finish().unwrap());
        // The buffer is constant; the tie itself is not reported.
        let hits = report.findings_for_pass("const-gate");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn unobservable_gate_flagged() {
        let mut b = NetlistBuilder::new("u");
        let a = b.primary_input("a");
        let used = b.gate_named("USED", GateKind::Inv, &[a]);
        let orphan = b.gate_named("ORPHAN", GateKind::Buf, &[a]);
        let _orphan2 = b.gate_named("ORPHAN2", GateKind::Inv, &[orphan]);
        b.primary_output("z", used);
        let report = lint_netlist(&b.finish().unwrap());
        let hits = report.findings_for_pass("unobservable");
        let names: Vec<_> = hits.iter().map(|f| f.gate.as_deref().unwrap()).collect();
        assert!(
            names.contains(&"ORPHAN") && names.contains(&"ORPHAN2"),
            "{names:?}"
        );
        assert!(!names.contains(&"USED"));
    }

    #[test]
    fn dead_gate_flagged_but_not_ties() {
        let mut b = NetlistBuilder::new("d");
        let a = b.primary_input("a");
        let zero = b.gate_named("TIE", GateKind::Tie0, &[]);
        let dead = b.gate_named("DEAD", GateKind::Inv, &[zero]);
        let live = b.gate_named("LIVE", GateKind::And2, &[a, dead]);
        b.primary_output("z", live);
        let report = lint_netlist(&b.finish().unwrap());
        let hits = report.findings_for_pass("dead-gate");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].gate.as_deref(), Some("DEAD"));
    }

    #[test]
    fn duplicates_detected_up_to_commutation() {
        let mut b = NetlistBuilder::new("dup");
        let a = b.primary_input("a");
        let c = b.primary_input("b");
        let x = b.gate_named("X", GateKind::And2, &[a, c]);
        let y = b.gate_named("Y", GateKind::And2, &[c, a]); // same set
        let m1 = b.gate_named("M1", GateKind::Mux2, &[a, c, x]);
        let _m2 = b.gate_named("M2", GateKind::Mux2, &[c, a, x]); // different pins
        b.primary_output("y", y);
        b.primary_output("m", m1);
        let report = lint_netlist(&b.finish().unwrap());
        let hits = report.findings_for_pass("duplicate-gate");
        assert_eq!(hits.len(), 1, "{:?}", codes(&report));
        assert_eq!(hits[0].gate.as_deref(), Some("Y"));
        assert!(hits[0].message.contains('X'));
    }

    #[test]
    fn unread_output_and_unused_input_flagged() {
        let mut b = NetlistBuilder::new("conn");
        let a = b.primary_input("a");
        let _unused_pi = b.primary_input("nc");
        let z = b.gate_named("Z", GateKind::Inv, &[a]);
        let _orphan = b.gate_named("ORPHAN", GateKind::Buf, &[a]);
        b.primary_output("z", z);
        let report = lint_netlist(&b.finish().unwrap());
        let hits = report.findings_for_pass("connectivity");
        assert!(hits
            .iter()
            .any(|f| f.code == "L007" && f.gate.as_deref() == Some("ORPHAN")));
        assert!(hits
            .iter()
            .any(|f| f.code == "L008" && f.net.as_deref() == Some("nc")));
    }

    #[test]
    fn fanout_outlier_flagged() {
        let mut b = NetlistBuilder::new("fan");
        let a = b.primary_input("a");
        let hub = b.gate_named("HUB", GateKind::Buf, &[a]);
        let mut last = hub;
        // 40 readers of the hub in a chain-free structure, each read once.
        for i in 0..40 {
            let inv = b.gate_named(format!("I{i}"), GateKind::Nand2, &[hub, last]);
            last = inv;
        }
        b.primary_output("z", last);
        let report = lint_netlist(&b.finish().unwrap());
        let hits = report.findings_for_pass("fanout-profile");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].gate.as_deref(), Some("HUB"));
    }

    #[test]
    fn register_discipline_flags_resetless_and_feedback() {
        let mut b = NetlistBuilder::new("reg");
        let a = b.primary_input("a");
        // Resetless DFF with Q->D feedback through an AND.
        let q = b.net("q");
        let d = b.gate_named("FB", GateKind::And2, &[a, q]);
        b.gate_driving("REG", GateKind::Dff, &[d], q);
        // Clean Dffre register.
        let rst = b.primary_input("rst");
        let en = b.primary_input("en");
        let good = b.gate_named("GOOD", GateKind::Dffre, &[a, en, rst]);
        b.primary_output("q", q);
        b.primary_output("g", good);
        let report = lint_netlist(&b.finish().unwrap());
        let hits = report.findings_for_pass("register-discipline");
        let reg_codes: Vec<_> = hits
            .iter()
            .filter(|f| f.gate.as_deref() == Some("REG"))
            .map(|f| f.code)
            .collect();
        assert!(
            reg_codes.contains(&"L010") && reg_codes.contains(&"L011"),
            "{reg_codes:?}"
        );
        assert!(!hits.iter().any(|f| f.gate.as_deref() == Some("GOOD")));
    }

    #[test]
    fn loop_pass_reports_unvalidated_rings() {
        // Validated netlists cannot loop, so drive the pass directly on
        // a design whose validity we bypass via a sequential-then-mutate
        // trick is impossible from outside the netlist crate; instead
        // assert the pass stays quiet on a clean design.
        let mut b = NetlistBuilder::new("clean");
        let a = b.primary_input("a");
        let z = b.gate(GateKind::Inv, &[a]);
        b.primary_output("z", z);
        let report = lint_netlist(&b.finish().unwrap());
        assert!(report.findings_for_pass("comb-loop").is_empty());
        assert!(report.passes_run.contains(&"comb-loop"));
    }

    #[test]
    fn scoap_control_flags_locked_feedback() {
        let mut b = NetlistBuilder::new("lock");
        // A register holding state only through its own Q->D loop: no
        // input sequence can ever load it.
        let q = b.net("q");
        b.gate_driving("LOCKED", GateKind::Dff, &[q], q);
        let a = b.primary_input("a");
        let z = b.gate(GateKind::And2, &[a, q]);
        b.primary_output("z", z);
        let report = lint_netlist(&b.finish().unwrap());
        let hits = report.findings_for_pass("scoap-control");
        assert!(
            hits.iter()
                .any(|f| f.code == "L012" && f.gate.as_deref() == Some("LOCKED")),
            "{hits:?}"
        );
    }

    #[test]
    fn scoap_observe_flags_blocked_paths() {
        let mut b = NetlistBuilder::new("blk");
        let a = b.primary_input("a");
        let hid = b.gate_named("HID", GateKind::Inv, &[a]);
        let zero = b.gate(GateKind::Tie0, &[]);
        // HID reaches the output topologically, but the constant side
        // pin blocks every sensitization.
        let and = b.gate(GateKind::And2, &[hid, zero]);
        b.primary_output("z", and);
        let report = lint_netlist(&b.finish().unwrap());
        let hits = report.findings_for_pass("scoap-observe");
        assert!(
            hits.iter()
                .any(|f| f.code == "L014" && f.gate.as_deref() == Some("HID")),
            "{hits:?}"
        );
    }

    #[test]
    fn structural_spof_flags_convergence_corridors() {
        let mut b = NetlistBuilder::new("neck");
        // Ten independent cones folded through a collector chain: the
        // final buffer post-dominates every upstream gate.
        let mut acc = {
            let pi = b.primary_input("i0");
            b.gate(GateKind::Inv, &[pi])
        };
        for i in 1..10 {
            let pi = b.primary_input(format!("i{i}"));
            let inv = b.gate(GateKind::Inv, &[pi]);
            acc = b.gate_named(format!("F{i}"), GateKind::Xor2, &[acc, inv]);
        }
        let neck = b.gate(GateKind::Buf, &[acc]);
        b.primary_output("z", neck);
        let report = lint_netlist(&b.finish().unwrap());
        let hits = report.findings_for_pass("structural-spof");
        // The last fold gate is an interior articulation point that the
        // whole accumulated cone must traverse. (The terminal buffer has
        // undirected degree 1 and so is never an articulation point.)
        assert!(
            hits.iter()
                .any(|f| f.code == "L016" && f.gate.as_deref() == Some("F9")),
            "{hits:?}"
        );
    }

    #[test]
    fn clean_design_is_error_free() {
        let mut b = NetlistBuilder::new("clean");
        let a = b.primary_input("a");
        let rst = b.primary_input("rst");
        let x = b.gate(GateKind::Inv, &[a]);
        let q = b.gate(GateKind::Dffr, &[x, rst]);
        b.primary_output("q", q);
        let report = lint_netlist(&b.finish().unwrap());
        assert_eq!(report.error_count(), 0, "{}", report.render_text());
        assert_eq!(report.warning_count(), 0, "{}", report.render_text());
    }
}
