//! `perfbench-tracer`: the per-layer half of the `fusa` benchmark.
//!
//! `perfbench/run.py --trace 1` times the real `fusa` CLI, then runs this
//! binary. It replays each workload command in process, making the same
//! public library calls the CLI makes, in the CLI's order, and wraps each
//! call into a layer in a span the benchmark owns (name, start, end,
//! parent, run id). Spans stay in memory and are written as JSONL when the
//! run ends. A summary JSON carries the per-layer metrics and each
//! command's artifact digests, which the runner compares with the CLI's
//! manifests (`trace.matches_cli`).
//!
//! A layer a command does not run is recorded as an empty, `skipped`
//! span where the CLI would run it, so every layer metric is a measured
//! duration on every workload (a few hundred nanoseconds when skipped).
//!
//! Three timed probes run after the replay and sit outside it: the
//! structural profile (`StructuralProfile::analyze`, unless the replay
//! already ran it), Brandes betweenness over the gate graph, and one
//! `CsrMatrix::matmul` of the normalized adjacency with a 64-column
//! matrix.
//!
//! ```text
//! perfbench-tracer --run-id ID --work DIR --spans FILE --summary FILE
//!     [--synth SIZE:SEED=PATH]... --command "analyze PATH --fast --threads 2"...
//! ```

use fusa::faultsim::{CampaignStats, DurabilityConfig, FaultCampaign, FaultList};
use fusa::gcn::pipeline::{FusaAnalysis, PipelineConfig};
use fusa::gcn::report::{render_csv_report, render_text_report, ReportOptions};
use fusa::gcn::{train_classifier, ExplainerConfig, GcnConfig, StaticRank};
use fusa::graph::{normalized_adjacency, CircuitGraph, FeatureMatrix, Standardizer};
use fusa::logicsim::{SignalStats, WorkloadSuite};
use fusa::netlist::structural::{betweenness, gate_adjacency};
use fusa::netlist::{designs, parser::parse_verilog, Netlist, StructuralProfile};
use fusa::neuro::split::Split;
use fusa::neuro::Matrix;
use fusa::obs::{fnv1a64_hex, set_status_target, Json, StatusTarget};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer started.
struct Span {
    name: String,
    parent: Option<usize>,
    start: f64,
    end: f64,
    skipped: bool,
}

/// In-memory span recorder; spans nest by call order.
struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, false);
        let out = f();
        self.exit(id);
        out
    }

    /// Records the empty span of a layer this command does not run.
    fn skip(&self, name: &str) {
        let id = self.enter(name, true);
        self.exit(id);
    }

    fn enter(&self, name: &str, skipped: bool) -> usize {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        spans.push(Span {
            name: name.to_string(),
            parent,
            start,
            end: start,
            skipped,
        });
        self.open.borrow_mut().push(id);
        id
    }

    fn exit(&self, id: usize) {
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.borrow_mut()[id].end = end;
        let popped = self.open.borrow_mut().pop();
        assert_eq!(popped, Some(id), "spans close in the order they open");
    }

    /// Total seconds of every span named `name`.
    fn seconds(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }
}

/// Work counts gathered at the same boundaries as the spans.
#[derive(Default)]
struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn absorb_campaign(&mut self, stats: &CampaignStats, quarantined: usize) {
        self.add("campaigns", 1.0);
        self.add("campaign.wall_s", stats.wall_seconds);
        self.add("campaign.fault_cycles", stats.fault_cycles as f64);
        self.add("campaign.gate_evals", stats.gate_evals as f64);
        self.add("campaign.gate_evals_full", stats.gate_evals_full as f64);
        self.add(
            "campaign.busy_s",
            stats.worker_busy_seconds.iter().sum::<f64>(),
        );
        self.add(
            "campaign.worker_s",
            stats.wall_seconds * stats.worker_busy_seconds.len() as f64,
        );
        self.add("campaign.cone_build_s", stats.cone_build_seconds);
        self.add("campaign.units", stats.units as f64);
        self.add("campaign.unit_retries", stats.unit_retries as f64);
        self.add("campaign.quarantined", quarantined as f64);
        self.add(
            "campaign.checkpoint_retries",
            stats.checkpoint_write_retries as f64,
        );
    }
}

/// One replayed CLI command, parsed from its argument string.
struct Command {
    name: String,
    design: String,
    gate: Option<String>,
    fast: bool,
    threads: usize,
    report: bool,
}

impl Command {
    fn parse(line: &str) -> Result<Command, String> {
        let args: Vec<&str> = line.split_whitespace().collect();
        let mut positionals = Vec::new();
        let mut command = Command {
            name: String::new(),
            design: String::new(),
            gate: None,
            fast: false,
            threads: 0,
            report: false,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i] {
                "--fast" => command.fast = true,
                "--threads" => {
                    i += 1;
                    command.threads = args
                        .get(i)
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| format!("bad --threads in `{line}`"))?;
                }
                // The replay writes the report into its own directory.
                "--report" => {
                    command.report = true;
                    i += 1;
                }
                "--run-dir" => i += 1,
                flag if flag.starts_with("--") => {
                    return Err(format!("flag `{flag}` is not replayed (in `{line}`)"))
                }
                positional => positionals.push(positional),
            }
            i += 1;
        }
        let mut positionals = positionals.into_iter();
        command.name = positionals.next().ok_or("empty command")?.to_string();
        command.design = positionals
            .next()
            .ok_or_else(|| format!("no design in `{line}`"))?
            .to_string();
        command.gate = positionals.next().map(str::to_string);
        Ok(command)
    }

    /// `analyze synth_10k`: the label the runner keys digests by.
    fn label(&self) -> String {
        format!("{} {}", self.name, design_slug(&self.design))
    }

    fn config(&self) -> PipelineConfig {
        let mut config = if self.fast {
            PipelineConfig::fast()
        } else {
            PipelineConfig::default()
        };
        config.campaign.threads = self.threads;
        config
    }
}

/// Design paths become slugs the way the CLI names its runs.
fn design_slug(design: &str) -> String {
    Path::new(design)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(design)
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Same resolution as the CLI: a built-in name or a Verilog path.
fn load_design(name: &str) -> Result<Netlist, String> {
    match name {
        "sdram_ctrl" => Ok(designs::sdram_ctrl()),
        "or1200_if" => Ok(designs::or1200_if()),
        "or1200_icfsm" => Ok(designs::or1200_icfsm()),
        "uart_ctrl" => Ok(designs::uart_ctrl()),
        path => {
            let source =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            parse_verilog(&source).map_err(|e| format!("cannot parse `{path}`: {e}"))
        }
    }
}

type Digests = Vec<(String, String)>;

/// What one replayed command leaves behind.
struct Replayed {
    netlist: Netlist,
    digests: Digests,
}

struct Replay<'a> {
    tracer: &'a Tracer,
    counts: RefCell<Counts>,
    work: PathBuf,
}

impl Replay<'_> {
    fn count(&self, name: &'static str, value: f64) {
        self.counts.borrow_mut().add(name, value);
    }

    /// Mirrors the CLI's observed-run set-up: a fresh recorder, a run
    /// directory and live status snapshots.
    fn session(&self, command: &Command) -> Result<PathBuf, String> {
        let dir = self.work.join(command.label().replace(' ', "-"));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
        fusa::obs::global().reset();
        set_status_target(Some(StatusTarget {
            path: dir.join("status.json"),
            run_id: command.label().replace(' ', "-"),
            design: design_slug(&command.design),
            shard: None,
        }));
        Ok(dir)
    }

    fn durability(dir: &Path) -> DurabilityConfig {
        DurabilityConfig {
            checkpoint: Some(dir.join("checkpoint.jsonl")),
            ..DurabilityConfig::default()
        }
    }

    /// `lint_digest` of the CLI.
    fn lint_digest(&self, netlist: &Netlist) -> (String, String) {
        self.tracer.time("lint.lint", || {
            let report = fusa::lint::lint_netlist(netlist);
            self.count("lint.findings", report.findings.len() as f64);
            (
                "lint.csv".to_string(),
                fnv1a64_hex(report.render_csv().as_bytes()),
            )
        })
    }

    fn run(&self, command: &Command) -> Result<Replayed, String> {
        let dir = self.session(command)?;
        let tracer = self.tracer;
        let label = format!("cmd {}", command.label());
        let out = tracer.time(&label, || match command.name.as_str() {
            "analyze" => self.analyze(command, &dir),
            "faults" => self.faults(command, &dir),
            "rank" => self.rank(command),
            "explain" => self.explain(command, &dir),
            other => Err(format!("command `{other}` is not replayed")),
        });
        set_status_target(None);
        out
    }

    /// `FusaPipeline::run`, one public call per layer.
    fn pipeline(
        &self,
        netlist: &Netlist,
        config: &PipelineConfig,
        dir: &Path,
    ) -> Result<FusaAnalysis, String> {
        let tracer = self.tracer;
        let (graph, adjacency) = tracer.time("graph.build", || {
            let graph = CircuitGraph::from_netlist(netlist);
            let adjacency = normalized_adjacency(&graph);
            (graph, adjacency)
        });
        self.count("graph.adjacency_nnz", adjacency.nnz() as f64);
        let (raw_features, standardizer, features) = tracer.time("graph.features", || {
            let stats = SignalStats::estimate(netlist, &config.signal_stats);
            let raw_features = if config.structural_features {
                let profile = StructuralProfile::analyze(netlist);
                FeatureMatrix::extract_with_structure(netlist, &stats, &profile)
            } else {
                FeatureMatrix::extract(netlist, &stats)
            };
            let standardizer = Standardizer::fit(raw_features.matrix());
            let features = standardizer.transform(raw_features.matrix());
            (raw_features, standardizer, features)
        });
        let (faults, excluded_fault_sites) = tracer.time("faultsim.fault_list", || {
            let full_faults = FaultList::all_gate_outputs(netlist);
            if config.exclude_untestable_faults {
                let untestable = tracer.time("lint.untestable", || {
                    fusa::lint::untestable_stuck_at_sites(netlist)
                });
                self.count("lint.untestable_sites", untestable.len() as f64);
                let total = full_faults.len();
                let kept = full_faults.exclude_untestable(&untestable);
                let excluded = total - kept.len();
                (kept, excluded)
            } else {
                tracer.skip("lint.untestable");
                (full_faults, 0)
            }
        });
        let obs = fusa::obs::global();
        obs.add("pipeline.faults", faults.len() as u64);
        obs.add("pipeline.excluded_fault_sites", excluded_fault_sites as u64);
        let workloads = tracer.time("logicsim.workloads", || {
            WorkloadSuite::generate(netlist, &config.workloads)
        });
        let report = tracer
            .time("campaign.run", || {
                FaultCampaign::new(config.campaign)
                    .with_durability(Self::durability(dir))
                    .run(netlist, &faults, &workloads)
            })
            .map_err(|e| e.to_string())?;
        if report.interrupted() {
            return Err("campaign interrupted".to_string());
        }
        let campaign_stats = report.stats().clone();
        let campaign_quarantined = report.quarantined().to_vec();
        self.counts
            .borrow_mut()
            .absorb_campaign(&campaign_stats, campaign_quarantined.len());
        let (dataset, split) = tracer.time("core.labels", || {
            let dataset = report.into_dataset(config.criticality_threshold);
            let critical = dataset.critical_count();
            let total = dataset.labels().len();
            if critical == 0 || critical == total {
                return Err(format!("degenerate labels: {critical}/{total} critical"));
            }
            let split =
                Split::stratified(dataset.labels(), config.train_fraction, config.split_seed);
            Ok((dataset, split))
        })?;
        let model_config = GcnConfig {
            in_features: features.cols(),
            ..config.model.clone()
        };
        let (classifier, history, evaluation) = tracer.time("train.run", || {
            train_classifier(
                &adjacency,
                &features,
                dataset.labels(),
                &split,
                model_config,
                &config.train,
            )
        });
        self.count("train.epochs", history.train_loss.len() as f64);
        Ok(FusaAnalysis {
            design_name: netlist.name().to_string(),
            graph,
            adjacency,
            raw_features,
            features,
            standardizer,
            dataset,
            split,
            classifier,
            history,
            evaluation,
            excluded_fault_sites,
            campaign_stats,
            campaign_quarantined,
        })
    }

    /// `cmd_analyze`.
    fn analyze(&self, command: &Command, dir: &Path) -> Result<Replayed, String> {
        let tracer = self.tracer;
        let netlist = tracer.time("netlist.parse", || load_design(&command.design))?;
        let config = command.config();
        let lint = self.lint_digest(&netlist);
        let analysis = self.pipeline(&netlist, &config, dir)?;
        tracer.skip("explain.node");
        tracer.skip("rank.from_profile");
        let (text, stable_text, csv) = tracer.time("report.render", || {
            let text = render_text_report(&analysis, &netlist, &ReportOptions::default());
            let stable_text = render_text_report(
                &analysis,
                &netlist,
                &ReportOptions {
                    include_stats: false,
                    ..ReportOptions::default()
                },
            );
            let csv = render_csv_report(&analysis, &netlist);
            (text, stable_text, csv)
        });
        let digests = tracer.time("report.digest", || -> Result<Digests, String> {
            if command.report {
                let path = dir.join("report.txt");
                std::fs::write(&path, &text)
                    .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
            }
            Ok(vec![
                (
                    "report.txt".to_string(),
                    fnv1a64_hex(stable_text.as_bytes()),
                ),
                ("nodes.csv".to_string(), fnv1a64_hex(csv.as_bytes())),
                lint,
            ])
        })?;
        Ok(Replayed { netlist, digests })
    }

    /// `cmd_faults`.
    fn faults(&self, command: &Command, dir: &Path) -> Result<Replayed, String> {
        let tracer = self.tracer;
        let netlist = tracer.time("netlist.parse", || load_design(&command.design))?;
        let config = command.config();
        // `fusa faults` keeps every site: no untestable-site exclusion.
        let faults = tracer.time("faultsim.fault_list", || {
            tracer.skip("lint.untestable");
            FaultList::all_gate_outputs(&netlist)
        });
        let workloads = tracer.time("logicsim.workloads", || {
            WorkloadSuite::generate(&netlist, &config.workloads)
        });
        let lint = self.lint_digest(&netlist);
        tracer.skip("graph.build");
        tracer.skip("graph.features");
        let report = tracer
            .time("campaign.run", || {
                FaultCampaign::new(config.campaign)
                    .with_durability(Self::durability(dir))
                    .run(&netlist, &faults, &workloads)
            })
            .map_err(|e| e.to_string())?;
        if report.interrupted() {
            return Err("campaign interrupted".to_string());
        }
        self.counts
            .borrow_mut()
            .absorb_campaign(report.stats(), report.quarantined().len());
        tracer.skip("train.run");
        tracer.skip("explain.node");
        tracer.skip("rank.from_profile");
        let (stable_summary, csv) = tracer.time("report.render", || {
            black_box(report.summary());
            let stable_summary = report.summary_opts(false);
            let dataset = report.into_dataset(config.criticality_threshold);
            let csv = dataset.to_csv(&netlist);
            (stable_summary, csv)
        });
        let digests = tracer.time("report.digest", || {
            vec![
                (
                    "summary.txt".to_string(),
                    fnv1a64_hex(stable_summary.as_bytes()),
                ),
                ("criticality.csv".to_string(), fnv1a64_hex(csv.as_bytes())),
                lint,
            ]
        });
        Ok(Replayed { netlist, digests })
    }

    /// `cmd_rank`: `StaticRank::compute` is the profile plus
    /// `StaticRank::from_profile`, replayed as its two public calls.
    fn rank(&self, command: &Command) -> Result<Replayed, String> {
        let tracer = self.tracer;
        let netlist = tracer.time("netlist.parse", || load_design(&command.design))?;
        tracer.skip("lint.lint");
        tracer.skip("graph.build");
        tracer.skip("graph.features");
        tracer.time("faultsim.fault_list", || tracer.skip("lint.untestable"));
        tracer.skip("logicsim.workloads");
        tracer.skip("campaign.run");
        tracer.skip("train.run");
        let profile = tracer.time("structural.profile", || {
            StructuralProfile::analyze(&netlist)
        });
        let rank = tracer.time("rank.from_profile", || {
            StaticRank::from_profile(&netlist, &profile)
        });
        tracer.skip("explain.node");
        let csv = tracer.time("report.render", || {
            black_box(rank.ranking());
            rank.to_csv(&netlist)
        });
        let digests = tracer.time("report.digest", || {
            vec![("rank.csv".to_string(), fnv1a64_hex(csv.as_bytes()))]
        });
        Ok(Replayed { netlist, digests })
    }

    /// `cmd_explain`: the full pipeline, then one node explanation.
    fn explain(&self, command: &Command, dir: &Path) -> Result<Replayed, String> {
        let tracer = self.tracer;
        let netlist = tracer.time("netlist.parse", || load_design(&command.design))?;
        let gate_name = command.gate.as_deref().ok_or("explain needs a gate")?;
        let gate = netlist
            .find_gate(gate_name)
            .ok_or_else(|| format!("no gate named `{gate_name}`"))?;
        let config = command.config();
        tracer.skip("lint.lint");
        let analysis = self.pipeline(&netlist, &config, dir)?;
        let explanation = tracer.time("explain.node", || {
            analysis
                .explainer(ExplainerConfig::default())
                .explain(gate.index())
        });
        tracer.skip("rank.from_profile");
        let text = tracer.time("report.render", || {
            let mut text = format!(
                "{gate_name}: predicted {} (P(critical) = {:.3}, ground truth score {:.2})\n",
                if explanation.predicted_class == 1 {
                    "CRITICAL"
                } else {
                    "non-critical"
                },
                analysis.evaluation.critical_probability[gate.index()],
                analysis.dataset.scores()[gate.index()],
            );
            text.push_str("\nfeature importance:\n");
            for (feature, score) in explanation.ranked_features() {
                let _ = writeln!(text, "  {feature:<36} {score:.2}");
            }
            text.push_str("\nmost influential wires:\n");
            for (a, b, weight) in explanation.edge_importance.iter().take(8) {
                let _ = writeln!(
                    text,
                    "  {} -- {}  (mask {weight:.2})",
                    netlist.gates()[*a].name,
                    netlist.gates()[*b].name,
                );
            }
            text
        });
        let digests = tracer.time("report.digest", || {
            vec![("explanation.txt".to_string(), fnv1a64_hex(text.as_bytes()))]
        });
        Ok(Replayed { netlist, digests })
    }

    /// The timed probes, one set per distinct design.
    fn probes(&self, designs: &[Netlist], profile_in_replay: bool) {
        let tracer = self.tracer;
        for netlist in designs {
            if !profile_in_replay {
                tracer.time("structural.profile", || {
                    black_box(StructuralProfile::analyze(netlist));
                });
            }
            tracer.time("structural.betweenness", || {
                black_box(betweenness(&gate_adjacency(netlist)));
            });
            let adjacency = normalized_adjacency(&CircuitGraph::from_netlist(netlist));
            let rows = adjacency.cols();
            let dense = Matrix::from_vec(
                rows,
                64,
                (0..rows * 64).map(|i| ((i % 97) as f64) / 97.0).collect(),
            );
            tracer.time("neuro.spmm", || {
                black_box(adjacency.matmul(black_box(&dense)));
            });
            self.count("neuro.spmm_nnz", adjacency.nnz() as f64);
        }
    }
}

struct Args {
    run_id: String,
    work: PathBuf,
    spans: PathBuf,
    summary: PathBuf,
    /// `(size, generator seed, path)` of each generated input.
    synth: Vec<(String, u64, String)>,
    commands: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        run_id: String::new(),
        work: PathBuf::new(),
        spans: PathBuf::new(),
        summary: PathBuf::new(),
        synth: Vec::new(),
        commands: Vec::new(),
    };
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("`{}` needs a value", argv[i]))?
            .clone();
        match argv[i].as_str() {
            "--run-id" => args.run_id = value,
            "--work" => args.work = PathBuf::from(value),
            "--spans" => args.spans = PathBuf::from(value),
            "--summary" => args.summary = PathBuf::from(value),
            "--synth" => {
                let bad = || format!("--synth takes SIZE:SEED=PATH, not `{value}`");
                let (spec, path) = value.split_once('=').ok_or_else(bad)?;
                let (size, seed) = spec.split_once(':').ok_or_else(bad)?;
                let seed = seed.parse().map_err(|_| bad())?;
                args.synth.push((size.to_string(), seed, path.to_string()));
            }
            "--command" => args.commands.push(value),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    if args.commands.is_empty() || args.summary.as_os_str().is_empty() {
        return Err("need --command and --summary".to_string());
    }
    Ok(args)
}

fn num(value: f64) -> Json {
    Json::Num(value)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let commands = args
        .commands
        .iter()
        .map(|c| Command::parse(c))
        .collect::<Result<Vec<_>, _>>()?;
    let tracer = Tracer::new();
    let replay = Replay {
        tracer: &tracer,
        counts: RefCell::new(Counts::default()),
        work: args.work.clone(),
    };

    // Input generation, replayed in process and checked against the
    // files the runner generated with `fusa synth`.
    let mut netlist_digests = Vec::new();
    tracer.time("setup", || -> Result<(), String> {
        tracer.time("netlist.synth", || {
            for (size, seed, path) in &args.synth {
                let netlist = match size.as_str() {
                    "10k" => designs::synth_10k(*seed),
                    "30k" => designs::synth_30k(*seed),
                    other => return Err(format!("unknown synth size `{other}`")),
                };
                let verilog = fusa::netlist::writer::write_verilog(&netlist);
                let on_disk =
                    std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
                let digest = fnv1a64_hex(verilog.as_bytes());
                if digest != fnv1a64_hex(&on_disk) {
                    return Err(format!("`{path}` differs from synth_{size}({seed})"));
                }
                netlist_digests.push((format!("synth_{size}"), digest));
            }
            Ok(())
        })
    })?;

    let mut digests = Vec::new();
    let mut probe_designs: Vec<Netlist> = Vec::new();
    for command in &commands {
        let replayed = replay.run(command)?;
        digests.push((command.label(), replayed.digests));
        if !probe_designs
            .iter()
            .any(|n| n.name() == replayed.netlist.name())
        {
            probe_designs.push(replayed.netlist);
        }
    }
    let profile_in_replay = commands.iter().any(|c| c.name == "rank");
    tracer.time("probe", || replay.probes(&probe_designs, profile_in_replay));

    // Coverage: the share of each replayed command's wall that its
    // direct child spans account for.
    let (replay_wall, covered) = {
        let spans = tracer.spans.borrow();
        let mut wall = 0.0;
        let mut covered = 0.0;
        for (id, span) in spans.iter().enumerate() {
            if span.parent.is_none() && span.name.starts_with("cmd ") {
                wall += span.end - span.start;
                covered += spans
                    .iter()
                    .filter(|s| s.parent == Some(id))
                    .map(|s| s.end - s.start)
                    .sum::<f64>();
            }
        }
        (wall, covered)
    };

    let counts = replay.counts.borrow();
    let seconds = |name: &str| tracer.seconds(name);
    let train_run = seconds("train.run");
    let campaign_run = seconds("campaign.run");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let metrics: Vec<(&str, f64)> = vec![
        ("netlist.synth_s", seconds("netlist.synth")),
        ("netlist.parse_s", seconds("netlist.parse")),
        ("structural.profile_s", seconds("structural.profile")),
        (
            "structural.betweenness_s",
            seconds("structural.betweenness"),
        ),
        ("lint.lint_s", seconds("lint.lint")),
        ("lint.untestable_s", seconds("lint.untestable")),
        ("lint.findings", counts.get("lint.findings")),
        ("lint.untestable_sites", counts.get("lint.untestable_sites")),
        ("graph.build_s", seconds("graph.build")),
        ("graph.features_s", seconds("graph.features")),
        ("graph.adjacency_nnz", counts.get("graph.adjacency_nnz")),
        ("logicsim.workloads_s", seconds("logicsim.workloads")),
        ("faultsim.fault_list_s", seconds("faultsim.fault_list")),
        ("campaign.run_s", campaign_run),
        ("campaign.fault_cycles", counts.get("campaign.fault_cycles")),
        (
            "campaign.fault_cycles_per_s",
            ratio(
                counts.get("campaign.fault_cycles"),
                counts.get("campaign.wall_s"),
            ),
        ),
        (
            "campaign.saved_fraction",
            ratio(
                counts.get("campaign.gate_evals_full") - counts.get("campaign.gate_evals"),
                counts.get("campaign.gate_evals_full"),
            ),
        ),
        (
            "campaign.utilization",
            ratio(
                counts.get("campaign.busy_s"),
                counts.get("campaign.worker_s"),
            ),
        ),
        (
            "campaign.cone_build_s",
            // Where no campaign runs, the empty campaign span stands in.
            if counts.get("campaigns") > 0.0 {
                counts.get("campaign.cone_build_s")
            } else {
                campaign_run
            },
        ),
        ("campaign.units", counts.get("campaign.units")),
        ("campaign.unit_retries", counts.get("campaign.unit_retries")),
        ("campaign.quarantined", counts.get("campaign.quarantined")),
        (
            "campaign.checkpoint_retries",
            counts.get("campaign.checkpoint_retries"),
        ),
        ("train.run_s", train_run),
        ("train.epochs", counts.get("train.epochs")),
        (
            "train.epoch_mean_s",
            train_run / counts.get("train.epochs").max(1.0),
        ),
        ("neuro.spmm_s", seconds("neuro.spmm")),
        ("neuro.spmm_nnz", counts.get("neuro.spmm_nnz")),
        ("explain.node_s", seconds("explain.node")),
        ("rank.from_profile_s", seconds("rank.from_profile")),
        ("report.render_s", seconds("report.render")),
        ("trace.coverage", ratio(covered, replay_wall)),
    ];

    // Spans are written once, after the run.
    let mut jsonl = String::new();
    for (id, span) in tracer.spans.borrow().iter().enumerate() {
        let line = Json::Obj(vec![
            ("run_id".to_string(), Json::Str(args.run_id.clone())),
            ("id".to_string(), num(id as f64)),
            ("name".to_string(), Json::Str(span.name.clone())),
            (
                "parent".to_string(),
                span.parent.map_or(Json::Null, |p| num(p as f64)),
            ),
            ("start_s".to_string(), num(span.start)),
            ("end_s".to_string(), num(span.end)),
            ("skipped".to_string(), Json::Bool(span.skipped)),
        ]);
        jsonl.push_str(&line.render());
        jsonl.push('\n');
    }
    if !args.spans.as_os_str().is_empty() {
        std::fs::write(&args.spans, jsonl)
            .map_err(|e| format!("cannot write `{}`: {e}", args.spans.display()))?;
    }

    let pairs = |entries: &[(String, String)]| {
        Json::Obj(
            entries
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect(),
        )
    };
    let summary = Json::Obj(vec![
        ("run_id".to_string(), Json::Str(args.run_id.clone())),
        ("replay_wall_s".to_string(), num(replay_wall)),
        (
            "metrics".to_string(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|&(k, v)| (k.to_string(), num(v)))
                    .collect(),
            ),
        ),
        (
            "digests".to_string(),
            Json::Obj(
                digests
                    .iter()
                    .map(|(label, entries)| (label.clone(), pairs(entries)))
                    .collect(),
            ),
        ),
        ("netlist_digests".to_string(), pairs(&netlist_digests)),
    ]);
    std::fs::write(&args.summary, summary.render_pretty())
        .map_err(|e| format!("cannot write `{}`: {e}", args.summary.display()))?;
    Ok(())
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench-tracer: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench-tracer: {message}");
            ExitCode::FAILURE
        }
    }
}
