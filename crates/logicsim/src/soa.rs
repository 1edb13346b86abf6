//! Structure-of-arrays wide-lane simulation kernel.
//!
//! [`crate::BitSim`] walks `Gate` structs through pointers into the
//! [`Netlist`] and carries one `u64` (64 lanes) per net. That layout is
//! convenient but leaves throughput on the table once designs reach the
//! 10k–100k-gate range:
//!
//! * every gate evaluation chases a pointer into the gate table and
//!   re-matches the cell kind, and
//! * each pass advances only 64 fault machines.
//!
//! This module rebuilds the hot path as flat tables ([`SoaNetlist`]):
//! the levelized combinational schedule is stored as contiguous arrays
//! (output-net indices, flattened input-net indices with a fixed
//! [`MAX_PINS`] stride, gate ids) grouped into *kind runs* — maximal
//! stretches of one level sharing a cell kind — so the inner loop is a
//! branch-light sweep that dispatches the cell function once per run
//! instead of once per gate. On top of that layout, [`WideSim`] widens
//! the lane word from one `u64` to `[u64; W]` (`W` ∈ {1, 4, 8}): each
//! net carries `64·W` independent Boolean lanes, grouped into `W`
//! *words* of 64 lanes. Forces, state flips and observations are
//! word-addressed, so one sweep advances up to `64·W` fault machines —
//! the per-word loops compile to SIMD on targets with 256/512-bit
//! vector units.
//!
//! Cone-restricted stepping: [`WideCone`] holds the restricted schedule
//! of one fault group's union fanout cone, and
//! [`WideSim::seed_boundary_packed`] / [`WideSim::settle_restricted`] /
//! [`WideSim::clock_restricted`] step only that cone, bit-identical to a
//! full [`WideSim::settle`] / [`WideSim::clock`] on every net and flop
//! the cone can influence.
//!
//! # Example
//!
//! ```
//! use fusa_logicsim::{SoaNetlist, WideSim};
//! use fusa_netlist::{GateKind, NetlistBuilder};
//!
//! # fn main() -> Result<(), fusa_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("and");
//! let a = b.primary_input("a");
//! let c = b.primary_input("b");
//! let z = b.gate(GateKind::And2, &[a, c]);
//! b.primary_output("z", z);
//! let netlist = b.finish()?;
//!
//! let soa = SoaNetlist::new(&netlist);
//! let mut sim = WideSim::<4>::new(&soa);
//! // Stuck-at-1 on z in word 3, lane 5; all inputs low.
//! sim.force_lanes(netlist.primary_outputs()[0].1, true, 3, 1 << 5);
//! sim.set_vector_broadcast(&[false, false]);
//! sim.settle();
//! assert_eq!(sim.output_word(0, 3), 1 << 5);
//! assert_eq!(sim.output_word(0, 0), 0);
//! # Ok(())
//! # }
//! ```

use fusa_netlist::{fanout_cone, Driver, GateId, GateKind, Levelizer, NetId, Netlist};

/// Maximum input-pin count of any cell in the gate library (the fixed
/// stride of the flattened input-net table).
pub const MAX_PINS: usize = 4;

/// Sentinel index: no force installed on this net / gate.
const NO_FORCE: u32 = u32::MAX;

/// One maximal stretch of the schedule sharing a level and a cell kind.
#[derive(Debug, Clone, Copy)]
struct Run {
    kind: GateKind,
    start: u32,
    end: u32,
}

/// A flat, kind-run-grouped combinational evaluation schedule.
///
/// Position `p` of the schedule evaluates the gate whose output net is
/// `out_net[p]` from input nets `in_nets[p * MAX_PINS ..][..arity]`
/// (unused pins hold `0` and are never read). Runs never cross a
/// levelization boundary, so evaluating positions in order respects all
/// combinational dependencies.
#[derive(Debug, Clone, Default)]
pub struct WideSchedule {
    runs: Vec<Run>,
    out_net: Vec<u32>,
    in_nets: Vec<u32>,
    gate_ids: Vec<u32>,
}

impl WideSchedule {
    /// Builds the run-grouped schedule for `gates`, which must already be
    /// in levelized order; `levels` is indexed by gate id.
    fn build(netlist: &Netlist, gates: &[GateId], levels: &[u32]) -> WideSchedule {
        let mut sorted: Vec<GateId> = gates.to_vec();
        // Stable sort: within one level gates are independent, so they
        // can be regrouped by kind; across levels order is preserved.
        sorted.sort_by_key(|g| (levels[g.index()], netlist.gate(*g).kind as u8));

        let mut schedule = WideSchedule {
            runs: Vec::new(),
            out_net: Vec::with_capacity(sorted.len()),
            in_nets: vec![0u32; sorted.len() * MAX_PINS],
            gate_ids: Vec::with_capacity(sorted.len()),
        };
        for (pos, &g) in sorted.iter().enumerate() {
            let gate = netlist.gate(g);
            schedule.out_net.push(gate.output.index() as u32);
            schedule.gate_ids.push(g.index() as u32);
            for (pin, &net) in gate.inputs.iter().enumerate() {
                schedule.in_nets[pos * MAX_PINS + pin] = net.index() as u32;
            }
            let level = levels[g.index()];
            match schedule.runs.last_mut() {
                Some(run)
                    if run.kind == gate.kind
                        && levels[schedule.gate_ids[run.start as usize] as usize] == level =>
                {
                    run.end = pos as u32 + 1;
                }
                _ => schedule.runs.push(Run {
                    kind: gate.kind,
                    start: pos as u32,
                    end: pos as u32 + 1,
                }),
            }
        }
        schedule
    }

    /// Number of scheduled gate evaluations.
    pub fn len(&self) -> usize {
        self.out_net.len()
    }

    /// `true` when the schedule evaluates nothing.
    pub fn is_empty(&self) -> bool {
        self.out_net.is_empty()
    }

    /// Number of kind runs (dispatch points per sweep).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }
}

/// One flip-flop in structure-of-arrays form.
#[derive(Debug, Clone, Copy)]
struct SeqGate {
    kind: GateKind,
    arity: u8,
    out_net: u32,
    in_nets: [u32; MAX_PINS],
    gate_id: u32,
}

/// The flat simulation tables of one design, built once and shared by
/// every [`WideSim`] (any `W`) over that design.
#[derive(Debug, Clone)]
pub struct SoaNetlist {
    net_count: usize,
    pi_nets: Vec<u32>,
    output_nets: Vec<u32>,
    comb: WideSchedule,
    seq: Vec<SeqGate>,
    /// Gate id → index into `seq` (`NO_FORCE` for combinational gates).
    seq_pos_of_gate: Vec<u32>,
    /// Gate id → input-pin count, for pin-force validation.
    arity_of_gate: Vec<u8>,
    /// Gate id → levelization level (flops at 0), for cone schedules.
    levels: Vec<u32>,
}

impl SoaNetlist {
    /// Levelizes `netlist` and lays its evaluation schedule out flat.
    pub fn new(netlist: &Netlist) -> SoaNetlist {
        let order = Levelizer::levelize(netlist);
        let levels: Vec<u32> = (0..netlist.gate_count())
            .map(|g| order.level(GateId(g as u32)))
            .collect();
        let comb = WideSchedule::build(netlist, order.order(), &levels);

        let mut seq = Vec::new();
        let mut seq_pos_of_gate = vec![NO_FORCE; netlist.gate_count()];
        for g in netlist.sequential_gates() {
            let gate = netlist.gate(g);
            let mut in_nets = [0u32; MAX_PINS];
            for (pin, &net) in gate.inputs.iter().enumerate() {
                in_nets[pin] = net.index() as u32;
            }
            seq_pos_of_gate[g.index()] = seq.len() as u32;
            seq.push(SeqGate {
                kind: gate.kind,
                arity: gate.inputs.len() as u8,
                out_net: gate.output.index() as u32,
                in_nets,
                gate_id: g.index() as u32,
            });
        }

        SoaNetlist {
            net_count: netlist.net_count(),
            pi_nets: netlist
                .primary_inputs()
                .iter()
                .map(|n| n.index() as u32)
                .collect(),
            output_nets: netlist
                .primary_outputs()
                .iter()
                .map(|(_, n)| n.index() as u32)
                .collect(),
            comb,
            seq,
            seq_pos_of_gate,
            arity_of_gate: netlist
                .gates()
                .iter()
                .map(|g| g.inputs.len() as u8)
                .collect(),
            levels,
        }
    }

    /// Number of nets in the design.
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Number of flip-flops.
    pub fn seq_count(&self) -> usize {
        self.seq.len()
    }

    /// Gate evaluations one full settle+clock cycle costs.
    pub fn full_evals_per_cycle(&self) -> u64 {
        (self.comb.len() + self.seq.len()) as u64
    }

    /// Number of `u64` words of a packed bit-per-net snapshot
    /// (mirrors [`crate::BitSim::packed_net_words`]).
    pub fn packed_net_words(&self) -> usize {
        self.net_count.div_ceil(64)
    }
}

/// The restricted evaluation schedule of one fault group's union fanout
/// cone: which gates to evaluate, which nets form the golden boundary,
/// and which primary outputs and flip-flops can diverge at all.
#[derive(Debug, Clone)]
pub struct WideCone {
    comb: WideSchedule,
    /// Indices into [`SoaNetlist::seq`] of the cone's flip-flops.
    seq_pos: Vec<u32>,
    /// The cone's flip-flops, in the same order as `seq_pos`.
    seq_gates: Vec<GateId>,
    /// Inputs of cone gates driven from outside the cone.
    boundary_nets: Vec<u32>,
    /// `(primary-output slot, net)` pairs a cone fault can reach.
    output_slots: Vec<(u32, u32)>,
    size: usize,
}

impl WideCone {
    /// Builds the restricted schedule for the union fanout cone of
    /// `roots` (the fault sites of one chunk group). The cone crosses
    /// flip-flops, so repeated restricted settle/clock cycles reproduce
    /// multi-cycle fault propagation exactly.
    pub fn new(soa: &SoaNetlist, netlist: &Netlist, roots: &[GateId]) -> WideCone {
        let cone = fanout_cone(netlist, roots);
        let comb_gates: Vec<GateId> = soa
            .comb
            .gate_ids
            .iter()
            .map(|&g| GateId(g))
            .filter(|&g| cone.contains(g))
            .collect();
        let (seq_pos, seq_gates): (Vec<u32>, Vec<GateId>) = soa
            .seq
            .iter()
            .enumerate()
            .map(|(s, flop)| (s as u32, GateId(flop.gate_id)))
            .filter(|&(_, g)| cone.contains(g))
            .unzip();

        // Boundary nets: inputs of cone gates driven from outside the
        // cone (primary inputs or non-cone gates). Their faulty-machine
        // values are by construction identical to the golden machine, so
        // they are seeded from the golden snapshot each cycle.
        let mut seen = vec![false; soa.net_count];
        let mut boundary_nets = Vec::new();
        for &g in comb_gates.iter().chain(&seq_gates) {
            for &net in &netlist.gate(g).inputs {
                if seen[net.index()] {
                    continue;
                }
                let external = match netlist.net(net).driver {
                    Some(Driver::Gate(d)) => !cone.contains(d),
                    _ => true,
                };
                if external {
                    seen[net.index()] = true;
                    boundary_nets.push(net.index() as u32);
                }
            }
        }

        // Primary outputs a cone fault can reach; all others are
        // provably golden and need no comparison.
        let output_slots = netlist
            .primary_outputs()
            .iter()
            .enumerate()
            .filter_map(|(slot, &(_, net))| match netlist.net(net).driver {
                Some(Driver::Gate(d)) if cone.contains(d) => {
                    Some((slot as u32, net.index() as u32))
                }
                _ => None,
            })
            .collect();

        WideCone {
            comb: WideSchedule::build(netlist, &comb_gates, &soa.levels),
            seq_pos,
            seq_gates,
            boundary_nets,
            output_slots,
            size: cone.len(),
        }
    }

    /// Number of gates in the cone.
    pub fn gate_count(&self) -> usize {
        self.size
    }

    /// Gate evaluations one restricted settle+clock cycle costs.
    pub fn evals_per_cycle(&self) -> u64 {
        (self.comb.len() + self.seq_pos.len()) as u64
    }

    /// `(slot, net)` for each primary output a cone fault can reach.
    pub fn output_slots(&self) -> &[(u32, u32)] {
        &self.output_slots
    }

    /// Flip-flops inside the cone — the only flops whose faulty state
    /// can differ from golden (the latent-fault sweep domain).
    pub fn seq_gates(&self) -> &[GateId] {
        &self.seq_gates
    }
}

/// Evaluates `kind` over `W` words of 64 lanes each.
///
/// `inputs[pin][word]` holds the 64 lanes of input `pin` in `word`;
/// pins beyond the cell's arity are ignored. Sequential kinds compute
/// the next state from the current state `q`. Word `w` of the result is
/// exactly [`crate::eval::eval_u64`] applied to word `w` of the inputs
/// (property-tested below).
#[inline(always)]
pub fn eval_wide<const W: usize>(
    kind: GateKind,
    inputs: &[[u64; W]; MAX_PINS],
    q: &[u64; W],
) -> [u64; W] {
    macro_rules! lanes {
        (|$w:ident| $expr:expr) => {{
            let mut out = [0u64; W];
            for ($w, slot) in out.iter_mut().enumerate() {
                *slot = $expr;
            }
            out
        }};
    }
    match kind {
        GateKind::Buf => lanes!(|w| inputs[0][w]),
        GateKind::Inv => lanes!(|w| !inputs[0][w]),
        GateKind::And2 => lanes!(|w| inputs[0][w] & inputs[1][w]),
        GateKind::And3 => lanes!(|w| inputs[0][w] & inputs[1][w] & inputs[2][w]),
        GateKind::And4 => lanes!(|w| inputs[0][w] & inputs[1][w] & inputs[2][w] & inputs[3][w]),
        GateKind::Or2 => lanes!(|w| inputs[0][w] | inputs[1][w]),
        GateKind::Or3 => lanes!(|w| inputs[0][w] | inputs[1][w] | inputs[2][w]),
        GateKind::Or4 => lanes!(|w| inputs[0][w] | inputs[1][w] | inputs[2][w] | inputs[3][w]),
        GateKind::Nand2 => lanes!(|w| !(inputs[0][w] & inputs[1][w])),
        GateKind::Nand3 => lanes!(|w| !(inputs[0][w] & inputs[1][w] & inputs[2][w])),
        GateKind::Nand4 => lanes!(|w| !(inputs[0][w] & inputs[1][w] & inputs[2][w] & inputs[3][w])),
        GateKind::Nor2 => lanes!(|w| !(inputs[0][w] | inputs[1][w])),
        GateKind::Nor3 => lanes!(|w| !(inputs[0][w] | inputs[1][w] | inputs[2][w])),
        GateKind::Nor4 => lanes!(|w| !(inputs[0][w] | inputs[1][w] | inputs[2][w] | inputs[3][w])),
        GateKind::Xor2 => lanes!(|w| inputs[0][w] ^ inputs[1][w]),
        GateKind::Xnor2 => lanes!(|w| !(inputs[0][w] ^ inputs[1][w])),
        GateKind::Mux2 => {
            lanes!(|w| (inputs[1][w] & inputs[2][w]) | (inputs[0][w] & !inputs[2][w]))
        }
        GateKind::Ao21 => lanes!(|w| (inputs[0][w] & inputs[1][w]) | inputs[2][w]),
        GateKind::Ao22 => lanes!(|w| (inputs[0][w] & inputs[1][w]) | (inputs[2][w] & inputs[3][w])),
        GateKind::Aoi21 => lanes!(|w| !((inputs[0][w] & inputs[1][w]) | inputs[2][w])),
        GateKind::Aoi22 => {
            lanes!(|w| !((inputs[0][w] & inputs[1][w]) | (inputs[2][w] & inputs[3][w])))
        }
        GateKind::Oai21 => lanes!(|w| !((inputs[0][w] | inputs[1][w]) & inputs[2][w])),
        GateKind::Oai22 => {
            lanes!(|w| !((inputs[0][w] | inputs[1][w]) & (inputs[2][w] | inputs[3][w])))
        }
        GateKind::Tie0 => [0u64; W],
        GateKind::Tie1 => [u64::MAX; W],
        GateKind::Dff => lanes!(|w| inputs[0][w]),
        GateKind::Dffr => lanes!(|w| inputs[0][w] & !inputs[1][w]),
        GateKind::Dffe => lanes!(|w| (inputs[0][w] & inputs[1][w]) | (q[w] & !inputs[1][w])),
        GateKind::Dffre => {
            lanes!(|w| ((inputs[0][w] & inputs[1][w]) | (q[w] & !inputs[1][w])) & !inputs[2][w])
        }
    }
}

/// A `64·W`-lane bit-parallel simulator over [`SoaNetlist`] tables.
///
/// Semantically a `W`-word generalization of [`crate::BitSim`] in
/// fault-parallel broadcast mode: all words receive the same input
/// vectors, while forces ([`WideSim::force_lanes`] /
/// [`WideSim::force_pin_lanes`]) and state flips
/// ([`WideSim::schedule_state_flip`]) are installed per word, so one
/// pass carries up to `64·W` independent fault machines. Registers
/// power up at `0`; [`WideSim::reset`] clears state but keeps forces,
/// exactly like [`crate::BitSim::reset`].
#[derive(Debug, Clone)]
pub struct WideSim<'a, const W: usize> {
    soa: &'a SoaNetlist,
    /// Net values, net-major: `values[net * W + word]`.
    values: Vec<u64>,
    /// Flop state, seq-position-major: `state[seq_pos * W + word]`.
    state: Vec<u64>,
    /// Broadcast drive per primary input (same in every word).
    input_drive: Vec<u64>,
    /// Per-net index into the force-mask tables (`NO_FORCE` = none).
    force_slot: Vec<u32>,
    force_and: Vec<[u64; W]>,
    force_or: Vec<[u64; W]>,
    forced_nets: Vec<u32>,
    /// Per-gate index into the pin-force tables (`NO_FORCE` = none).
    pin_force_slot: Vec<u32>,
    pin_force_and: Vec<[[u64; W]; MAX_PINS]>,
    pin_force_or: Vec<[[u64; W]; MAX_PINS]>,
    pin_forced_gates: Vec<u32>,
    /// `(seq_pos * W + word, lanes)` XORed into state at the next clock.
    state_flips: Vec<(u32, u64)>,
    cycles: u64,
}

impl<'a, const W: usize> WideSim<'a, W> {
    /// Creates a simulator with registers at `0` and inputs driving `0`.
    pub fn new(soa: &'a SoaNetlist) -> Self {
        WideSim {
            soa,
            values: vec![0; soa.net_count * W],
            state: vec![0; soa.seq.len() * W],
            input_drive: vec![0; soa.pi_nets.len()],
            force_slot: vec![NO_FORCE; soa.net_count],
            force_and: Vec::new(),
            force_or: Vec::new(),
            forced_nets: Vec::new(),
            pin_force_slot: vec![NO_FORCE; soa.arity_of_gate.len()],
            pin_force_and: Vec::new(),
            pin_force_or: Vec::new(),
            pin_forced_gates: Vec::new(),
            state_flips: Vec::new(),
            cycles: 0,
        }
    }

    /// The shared tables this simulator runs over.
    pub fn soa(&self) -> &SoaNetlist {
        self.soa
    }

    /// Resets register state and the cycle counter (forces stay).
    pub fn reset(&mut self) {
        self.state.fill(0);
        self.cycles = 0;
    }

    /// Number of clock edges since construction or [`WideSim::reset`].
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Broadcasts a full input vector to every lane of every word.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len()` differs from the PI count.
    pub fn set_vector_broadcast(&mut self, vector: &[bool]) {
        assert_eq!(vector.len(), self.input_drive.len());
        for (drive, &bit) in self.input_drive.iter_mut().zip(vector) {
            *drive = if bit { u64::MAX } else { 0 };
        }
    }

    /// Installs a stuck-at force on `net`, restricted to the given lanes
    /// of one word. Multiple calls accumulate.
    pub fn force_lanes(&mut self, net: NetId, stuck_high: bool, word: usize, lanes: u64) {
        assert!(word < W, "word {word} out of range for W={W}");
        let mut slot = self.force_slot[net.index()];
        if slot == NO_FORCE {
            slot = self.force_and.len() as u32;
            self.force_and.push([u64::MAX; W]);
            self.force_or.push([0u64; W]);
            self.force_slot[net.index()] = slot;
            self.forced_nets.push(net.index() as u32);
        }
        if stuck_high {
            self.force_or[slot as usize][word] |= lanes;
        } else {
            self.force_and[slot as usize][word] &= !lanes;
        }
    }

    /// Installs a stuck-at force on one input pin of `gate`, restricted
    /// to the given lanes of one word (mirrors
    /// [`crate::BitSim::force_pin_lanes`]).
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range for the gate's cell or `word`
    /// for `W`.
    pub fn force_pin_lanes(
        &mut self,
        gate: GateId,
        pin: u8,
        stuck_high: bool,
        word: usize,
        lanes: u64,
    ) {
        assert!(word < W, "word {word} out of range for W={W}");
        let arity = self.soa.arity_of_gate[gate.index()];
        assert!(pin < arity, "pin {pin} out of range for {arity}-input gate");
        let mut slot = self.pin_force_slot[gate.index()];
        if slot == NO_FORCE {
            slot = self.pin_force_and.len() as u32;
            self.pin_force_and.push([[u64::MAX; W]; MAX_PINS]);
            self.pin_force_or.push([[0u64; W]; MAX_PINS]);
            self.pin_force_slot[gate.index()] = slot;
            self.pin_forced_gates.push(gate.index() as u32);
        }
        if stuck_high {
            self.pin_force_or[slot as usize][pin as usize][word] |= lanes;
        } else {
            self.pin_force_and[slot as usize][pin as usize][word] &= !lanes;
        }
    }

    /// Schedules a single-event upset: the given lanes of one word of a
    /// flip-flop's state are inverted at the *next* clock edge, once.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not sequential or `word` is out of range.
    pub fn schedule_state_flip(&mut self, gate: GateId, word: usize, lanes: u64) {
        assert!(word < W, "word {word} out of range for W={W}");
        let pos = self.soa.seq_pos_of_gate[gate.index()];
        assert!(pos != NO_FORCE, "state flips target flip-flops");
        self.state_flips.push((pos * W as u32 + word as u32, lanes));
    }

    /// Removes every installed force and any pending state flips.
    pub fn clear_forces(&mut self) {
        for net in self.forced_nets.drain(..) {
            self.force_slot[net as usize] = NO_FORCE;
        }
        self.force_and.clear();
        self.force_or.clear();
        for gate in self.pin_forced_gates.drain(..) {
            self.pin_force_slot[gate as usize] = NO_FORCE;
        }
        self.pin_force_and.clear();
        self.pin_force_or.clear();
        self.state_flips.clear();
    }

    /// The 64 lanes of `net` in one word.
    pub fn net_word(&self, net: NetId, word: usize) -> u64 {
        self.values[net.index() * W + word]
    }

    /// The 64 lanes of the `slot`-th primary output in one word.
    pub fn output_word(&self, slot: usize, word: usize) -> u64 {
        let net = self.soa.output_nets[slot] as usize;
        self.values[net * W + word]
    }

    /// Current register state of a sequential gate in one word.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not sequential.
    pub fn flop_word(&self, gate: GateId, word: usize) -> u64 {
        let pos = self.soa.seq_pos_of_gate[gate.index()];
        assert!(pos != NO_FORCE, "flop_word targets flip-flops");
        self.state[pos as usize * W + word]
    }

    #[inline(always)]
    fn masked_write(&mut self, net: usize, mut v: [u64; W]) {
        let slot = self.force_slot[net];
        if slot != NO_FORCE {
            let and = &self.force_and[slot as usize];
            let or = &self.force_or[slot as usize];
            for w in 0..W {
                v[w] = (v[w] & and[w]) | or[w];
            }
        }
        self.values[net * W..net * W + W].copy_from_slice(&v);
    }

    /// Propagates inputs and register state through the combinational
    /// logic (one levelized pass over the full schedule).
    pub fn settle(&mut self) {
        let soa = self.soa;
        for i in 0..soa.pi_nets.len() {
            let net = soa.pi_nets[i] as usize;
            self.masked_write(net, [self.input_drive[i]; W]);
        }
        for s in 0..soa.seq.len() {
            self.publish_flop(s);
        }
        self.sweep_schedule(&soa.comb);
    }

    /// Applies one rising clock edge to every flip-flop.
    pub fn clock(&mut self) {
        let soa = self.soa;
        for (s, flop) in soa.seq.iter().enumerate() {
            self.clock_flop(s, flop);
        }
        self.apply_state_flips();
        self.cycles += 1;
    }

    /// Seeds every cone boundary net from a packed golden snapshot (the
    /// same snapshot format as [`crate::BitSim::snapshot_nets_packed`]),
    /// broadcast to all words.
    pub fn seed_boundary_packed(&mut self, cone: &WideCone, packed: &[u64]) {
        for &net in &cone.boundary_nets {
            let i = net as usize;
            let bit = (packed[i >> 6] >> (i & 63)) & 1;
            self.values[i * W..i * W + W].fill(0u64.wrapping_sub(bit));
        }
    }

    /// [`WideSim::settle`] restricted to the gates of `cone`. Boundary
    /// nets must already hold golden values; non-cone nets are stale.
    pub fn settle_restricted(&mut self, cone: &WideCone) {
        for i in 0..cone.seq_pos.len() {
            self.publish_flop(cone.seq_pos[i] as usize);
        }
        self.sweep_schedule(&cone.comb);
    }

    /// [`WideSim::clock`] restricted to the flip-flops of `cone`.
    pub fn clock_restricted(&mut self, cone: &WideCone) {
        let soa = self.soa;
        for i in 0..cone.seq_pos.len() {
            let s = cone.seq_pos[i] as usize;
            self.clock_flop(s, &soa.seq[s]);
        }
        self.apply_state_flips();
        self.cycles += 1;
    }

    #[inline(always)]
    fn publish_flop(&mut self, s: usize) {
        let flop = &self.soa.seq[s];
        let mut v = [0u64; W];
        v.copy_from_slice(&self.state[s * W..s * W + W]);
        self.masked_write(flop.out_net as usize, v);
    }

    #[inline(always)]
    fn gather_inputs(&self, base: usize, nets: &[u32], arity: usize) -> [[u64; W]; MAX_PINS] {
        let mut ins = [[0u64; W]; MAX_PINS];
        for (pin, slot) in ins.iter_mut().enumerate().take(arity) {
            let net = nets[base + pin] as usize;
            slot.copy_from_slice(&self.values[net * W..net * W + W]);
        }
        ins
    }

    #[inline(always)]
    fn apply_pin_masks(&self, gate: usize, ins: &mut [[u64; W]; MAX_PINS], arity: usize) {
        let slot = self.pin_force_slot[gate];
        if slot == NO_FORCE {
            return;
        }
        let and = &self.pin_force_and[slot as usize];
        let or = &self.pin_force_or[slot as usize];
        for pin in 0..arity {
            for w in 0..W {
                ins[pin][w] = (ins[pin][w] & and[pin][w]) | or[pin][w];
            }
        }
    }

    fn clock_flop(&mut self, s: usize, flop: &SeqGate) {
        let arity = flop.arity as usize;
        let mut ins = self.gather_inputs(0, &flop.in_nets, arity);
        self.apply_pin_masks(flop.gate_id as usize, &mut ins, arity);
        let mut q = [0u64; W];
        q.copy_from_slice(&self.state[s * W..s * W + W]);
        let v = eval_wide::<W>(flop.kind, &ins, &q);
        self.state[s * W..s * W + W].copy_from_slice(&v);
    }

    fn apply_state_flips(&mut self) {
        for (index, lanes) in self.state_flips.drain(..) {
            self.state[index as usize] ^= lanes;
        }
    }

    fn sweep_schedule(&mut self, sched: &WideSchedule) {
        for r in 0..sched.runs.len() {
            let run = sched.runs[r];
            self.sweep_run(sched, run);
        }
    }

    /// Dispatches one kind run to a monomorphized inner loop: the cell
    /// function is resolved once per run, not once per gate.
    fn sweep_run(&mut self, sched: &WideSchedule, run: Run) {
        let (start, end) = (run.start as usize, run.end as usize);
        macro_rules! arm {
            ($kind:ident, $arity:expr) => {
                self.sweep_kind::<$arity, _>(sched, start, end, |ins| {
                    eval_wide::<W>(GateKind::$kind, ins, &[0u64; W])
                })
            };
        }
        match run.kind {
            GateKind::Buf => arm!(Buf, 1),
            GateKind::Inv => arm!(Inv, 1),
            GateKind::And2 => arm!(And2, 2),
            GateKind::And3 => arm!(And3, 3),
            GateKind::And4 => arm!(And4, 4),
            GateKind::Or2 => arm!(Or2, 2),
            GateKind::Or3 => arm!(Or3, 3),
            GateKind::Or4 => arm!(Or4, 4),
            GateKind::Nand2 => arm!(Nand2, 2),
            GateKind::Nand3 => arm!(Nand3, 3),
            GateKind::Nand4 => arm!(Nand4, 4),
            GateKind::Nor2 => arm!(Nor2, 2),
            GateKind::Nor3 => arm!(Nor3, 3),
            GateKind::Nor4 => arm!(Nor4, 4),
            GateKind::Xor2 => arm!(Xor2, 2),
            GateKind::Xnor2 => arm!(Xnor2, 2),
            GateKind::Mux2 => arm!(Mux2, 3),
            GateKind::Ao21 => arm!(Ao21, 3),
            GateKind::Ao22 => arm!(Ao22, 4),
            GateKind::Aoi21 => arm!(Aoi21, 3),
            GateKind::Aoi22 => arm!(Aoi22, 4),
            GateKind::Oai21 => arm!(Oai21, 3),
            GateKind::Oai22 => arm!(Oai22, 4),
            GateKind::Tie0 => arm!(Tie0, 0),
            GateKind::Tie1 => arm!(Tie1, 0),
            GateKind::Dff | GateKind::Dffr | GateKind::Dffe | GateKind::Dffre => {
                unreachable!("sequential gates never enter the combinational schedule")
            }
        }
    }

    #[inline(always)]
    fn sweep_kind<const A: usize, F>(
        &mut self,
        sched: &WideSchedule,
        start: usize,
        end: usize,
        f: F,
    ) where
        F: Fn(&[[u64; W]; MAX_PINS]) -> [u64; W],
    {
        for pos in start..end {
            let mut ins = self.gather_inputs(pos * MAX_PINS, &sched.in_nets, A);
            self.apply_pin_masks(sched.gate_ids[pos] as usize, &mut ins, A);
            let v = f(&ins);
            self.masked_write(sched.out_net[pos] as usize, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitsim::BitSim;
    use crate::eval::eval_u64;
    use fusa_netlist::designs::{random_netlist, RandomNetlistConfig};
    use fusa_netlist::{gate_ids, NetlistBuilder};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    const ALL_KINDS: [GateKind; 29] = [
        GateKind::Buf,
        GateKind::Inv,
        GateKind::And2,
        GateKind::And3,
        GateKind::And4,
        GateKind::Or2,
        GateKind::Or3,
        GateKind::Or4,
        GateKind::Nand2,
        GateKind::Nand3,
        GateKind::Nand4,
        GateKind::Nor2,
        GateKind::Nor3,
        GateKind::Nor4,
        GateKind::Xor2,
        GateKind::Xnor2,
        GateKind::Mux2,
        GateKind::Ao21,
        GateKind::Ao22,
        GateKind::Aoi21,
        GateKind::Aoi22,
        GateKind::Oai21,
        GateKind::Oai22,
        GateKind::Tie0,
        GateKind::Tie1,
        GateKind::Dff,
        GateKind::Dffr,
        GateKind::Dffe,
        GateKind::Dffre,
    ];

    #[test]
    fn eval_wide_agrees_with_eval_u64_per_word() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x51DE);
        for _ in 0..200 {
            for kind in ALL_KINDS {
                let mut ins = [[0u64; 8]; MAX_PINS];
                for pin in ins.iter_mut() {
                    for w in pin.iter_mut() {
                        *w = rng.gen();
                    }
                }
                let mut q = [0u64; 8];
                for w in q.iter_mut() {
                    *w = rng.gen();
                }
                let wide = eval_wide::<8>(kind, &ins, &q);
                let arity = kind.num_inputs();
                for w in 0..8 {
                    let scalar_inputs: Vec<u64> = (0..arity).map(|p| ins[p][w]).collect();
                    assert_eq!(
                        wide[w],
                        eval_u64(kind, &scalar_inputs, q[w]),
                        "{kind:?} word {w}"
                    );
                }
            }
        }
    }

    /// Every word of a WideSim must match an independently configured
    /// scalar BitSim, with per-word forces, pin forces and state flips.
    #[test]
    fn wide_words_match_independent_scalar_sims() {
        for seed in [11u64, 29, 63] {
            let netlist = random_netlist(&RandomNetlistConfig {
                num_gates: 140,
                seed,
                ..Default::default()
            });
            let soa = SoaNetlist::new(&netlist);
            let mut wide = WideSim::<4>::new(&soa);
            let mut scalars: Vec<BitSim> = (0..4).map(|_| BitSim::new(&netlist)).collect();

            let ids: Vec<GateId> = gate_ids(&netlist).collect();
            let flops = netlist.sequential_gates();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF00D);

            // Distinct per-word fault configuration.
            for (word, scalar) in scalars.iter_mut().enumerate() {
                let g = ids[(word * 7 + 3) % ids.len()];
                let net = netlist.gate(g).output;
                let lanes: u64 = rng.gen();
                let high = word % 2 == 0;
                wide.force_lanes(net, high, word, lanes);
                scalar.force_lanes(net, high, lanes);

                let pg = ids[(word * 13 + 1) % ids.len()];
                let arity = netlist.gate(pg).inputs.len();
                if arity > 0 {
                    let pin = (word % arity) as u8;
                    let plane: u64 = rng.gen();
                    wide.force_pin_lanes(pg, pin, !high, word, plane);
                    scalar.force_pin_lanes(pg, pin, !high, plane);
                }
            }

            let pi_count = netlist.primary_inputs().len();
            for cycle in 0..24 {
                let vector: Vec<bool> = (0..pi_count).map(|_| rng.gen()).collect();
                if cycle == 5 && !flops.is_empty() {
                    let flip: u64 = rng.gen();
                    for (word, scalar) in scalars.iter_mut().enumerate() {
                        let flop = flops[word % flops.len()];
                        wide.schedule_state_flip(flop, word, flip);
                        scalar.schedule_state_flip(flop, flip);
                    }
                }
                wide.set_vector_broadcast(&vector);
                wide.settle();
                for (word, scalar) in scalars.iter_mut().enumerate() {
                    scalar.set_vector_broadcast(&vector);
                    scalar.settle();
                    for net in 0..netlist.net_count() {
                        assert_eq!(
                            wide.net_word(NetId(net as u32), word),
                            scalar.net_lanes(NetId(net as u32)),
                            "seed {seed} cycle {cycle} word {word} net {net}"
                        );
                    }
                }
                wide.clock();
                for (word, scalar) in scalars.iter_mut().enumerate() {
                    scalar.clock();
                    for &f in &flops {
                        assert_eq!(
                            wide.flop_word(f, word),
                            scalar.flop_lanes(f),
                            "seed {seed} cycle {cycle} word {word} flop state"
                        );
                    }
                }
            }
        }
    }

    /// Drives a full and a cone-restricted `WideSim` with the same
    /// stuck-at faults (root `i` forced in word `i`) and asserts that
    /// every cone output and cone flop matches cycle by cycle, and that
    /// outputs outside the cone never leave the golden trajectory.
    fn check_restricted_matches_full(netlist: &Netlist, roots: &[GateId], stuck_high: bool) {
        let soa = SoaNetlist::new(netlist);
        let cone = WideCone::new(&soa, netlist, roots);
        let mut golden = BitSim::new(netlist);
        let mut full = WideSim::<4>::new(&soa);
        let mut restricted = WideSim::<4>::new(&soa);
        for (word, &root) in roots.iter().enumerate() {
            let net = netlist.gate(root).output;
            full.force_lanes(net, stuck_high, word, u64::MAX);
            restricted.force_lanes(net, stuck_high, word, u64::MAX);
        }

        let mut rng = ChaCha8Rng::seed_from_u64(0xC0DE);
        let pi_count = netlist.primary_inputs().len();
        let mut packed = vec![0u64; golden.packed_net_words()];
        for _ in 0..16 {
            let vector: Vec<bool> = (0..pi_count).map(|_| rng.gen()).collect();
            golden.set_vector_broadcast(&vector);
            golden.settle();
            golden.snapshot_nets_packed(&mut packed);

            full.set_vector_broadcast(&vector);
            full.settle();

            restricted.seed_boundary_packed(&cone, &packed);
            restricted.settle_restricted(&cone);

            for word in 0..4 {
                for &(slot, net) in cone.output_slots() {
                    assert_eq!(
                        restricted.net_word(NetId(net), word),
                        full.net_word(NetId(net), word),
                        "output slot {slot} word {word} diverged"
                    );
                }
                for (slot, &(_, net)) in netlist.primary_outputs().iter().enumerate() {
                    if !cone.output_slots().iter().any(|&(s, _)| s as usize == slot) {
                        assert_eq!(full.net_word(net, word), golden.net_lanes(net));
                    }
                }
            }

            golden.clock();
            full.clock();
            restricted.clock_restricted(&cone);

            for &g in cone.seq_gates() {
                for word in 0..4 {
                    assert_eq!(
                        restricted.flop_word(g, word),
                        full.flop_word(g, word),
                        "cone flop state diverged in word {word}"
                    );
                }
            }
        }
    }

    /// Cone-restricted wide stepping must match full wide stepping on
    /// every net the cone can influence, for a multi-root union cone.
    #[test]
    fn restricted_wide_matches_full_wide() {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_gates: 120,
            seed: 17,
            ..Default::default()
        });
        let ids: Vec<GateId> = gate_ids(&netlist).collect();
        let roots = [ids[0], ids[ids.len() / 2], ids[ids.len() - 1]];
        check_restricted_matches_full(&netlist, &roots, true);
        check_restricted_matches_full(&netlist, &roots, false);
    }

    /// The same check for single-root cones across several designs and
    /// both stuck-at polarities.
    #[test]
    fn restricted_cone_matches_full_on_random_designs() {
        for seed in [3u64, 17, 91] {
            let netlist = random_netlist(&RandomNetlistConfig {
                num_gates: 120,
                seed,
                ..Default::default()
            });
            let ids: Vec<GateId> = gate_ids(&netlist).collect();
            for root in [ids[0], ids[ids.len() / 2], ids[ids.len() - 1]] {
                check_restricted_matches_full(&netlist, &[root], true);
                check_restricted_matches_full(&netlist, &[root], false);
            }
        }
    }

    #[test]
    fn cone_schedule_is_smaller_than_netlist_for_local_faults() {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_gates: 300,
            seed: 5,
            ..Default::default()
        });
        let soa = SoaNetlist::new(&netlist);
        // At least one gate's cone must be a strict subset on a 300-gate
        // design; the last-created gates have shallow fanout.
        let smallest = gate_ids(&netlist)
            .map(|g| WideCone::new(&soa, &netlist, &[g]).evals_per_cycle())
            .min()
            .unwrap();
        assert!(smallest < soa.full_evals_per_cycle());
    }

    #[test]
    fn kind_runs_never_cross_levels_and_cover_all_gates() {
        let netlist = random_netlist(&RandomNetlistConfig {
            num_gates: 200,
            seed: 3,
            ..Default::default()
        });
        let soa = SoaNetlist::new(&netlist);
        let comb_count = netlist.combinational_gates().len();
        assert_eq!(soa.comb.len(), comb_count);
        assert!(soa.comb.run_count() <= comb_count);
        let mut covered = 0usize;
        for run in &soa.comb.runs {
            assert!(run.start < run.end);
            covered += (run.end - run.start) as usize;
            let first = soa.comb.gate_ids[run.start as usize] as usize;
            for pos in run.start..run.end {
                let g = soa.comb.gate_ids[pos as usize] as usize;
                assert_eq!(netlist.gate(GateId(g as u32)).kind, run.kind);
                assert_eq!(soa.levels[g], soa.levels[first], "run crosses a level");
            }
        }
        assert_eq!(covered, comb_count);
    }

    #[test]
    fn reset_clears_state_not_forces() {
        let mut b = NetlistBuilder::new("reg");
        let a = b.primary_input("a");
        let q = b.gate(GateKind::Dff, &[a]);
        b.primary_output("q", q);
        let netlist = b.finish().unwrap();
        let q_net = netlist.primary_outputs()[0].1;
        let soa = SoaNetlist::new(&netlist);

        let mut sim = WideSim::<1>::new(&soa);
        sim.force_lanes(q_net, true, 0, 0b1);
        sim.set_vector_broadcast(&[true]);
        sim.settle();
        sim.clock();
        sim.reset();
        sim.settle();
        assert_eq!(sim.flop_word(netlist.sequential_gates()[0], 0), 0);
        // Force survives the reset.
        assert_eq!(sim.output_word(0, 0) & 1, 1);
        sim.clear_forces();
        sim.settle();
        assert_eq!(sim.output_word(0, 0) & 1, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn word_out_of_range_panics() {
        let mut b = NetlistBuilder::new("buf");
        let a = b.primary_input("a");
        let z = b.gate(GateKind::Buf, &[a]);
        b.primary_output("z", z);
        let netlist = b.finish().unwrap();
        let soa = SoaNetlist::new(&netlist);
        let mut sim = WideSim::<2>::new(&soa);
        sim.force_lanes(netlist.primary_outputs()[0].1, true, 2, 1);
    }
}
