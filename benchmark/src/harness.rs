//! Running one workload: rounds, aggregation, correctness accounting,
//! and the traced run.

use std::time::Instant;

use crate::layers::{self, Layers};
use crate::metrics::{self, Better, Clock, EndToEnd, Layer};
use crate::stats::{fastest, Best, Summary};
use crate::trace::{self, Name, Trace};
use crate::workloads::{self, check, Check, Round};

/// How to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Drives every random choice in workload generation.
    pub seed: u64,
    /// Measure for at least this long (and at least [`MIN_ROUNDS`]).
    pub seconds: f64,
    /// Same code paths at a hundredth of the work, one round, no
    /// warm-up: a sanity run with no performance meaning.
    pub smoke: bool,
}

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// The measuring time used when none is given (`run_seconds` of
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 15.0;
/// Timed rounds are never fewer than this, however slow a round is.
pub const MIN_ROUNDS: usize = 5;
/// Span records kept per traced round; the roll-up stays exact beyond.
const SPAN_CAPACITY: usize = 1 << 20;
/// Untraced/traced pairs behind `trace.overhead_pct`.
const TRACE_PAIRS: usize = 3;

/// What a run of one workload produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The workload.
    pub workload: String,
    /// The options it ran under.
    pub options: Options,
    /// Whether this is the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub traced: bool,
    /// Timed rounds.
    pub rounds: usize,
    /// Correctness checks run.
    pub attempted: u64,
    /// Correctness checks that did not hold.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run), in table order.
    pub end_to_end: Vec<(&'static EndToEnd, Summary)>,
    /// Per-layer metrics (traced run), in table order.
    pub per_layer: Vec<(&'static Layer, f64)>,
    /// The last traced round's recording (traced run).
    pub trace: Option<Trace>,
}

impl Outcome {
    fn new(workload: &str, options: Options, traced: bool) -> Self {
        Outcome {
            workload: workload.to_string(),
            options,
            traced,
            rounds: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            trace: None,
        }
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn tally(&mut self, checks: &[Check]) {
        for c in checks {
            self.attempted += 1;
            if !c.ok {
                self.failed += 1;
                self.failures.push(format!("{}: {}", c.name, c.detail));
            }
        }
    }
}

/// The scale of a round: full, a tenth for the traced run, a hundredth
/// for `--smoke`.
fn scale(options: &Options, traced: bool) -> f64 {
    match (options.smoke, traced) {
        (true, _) => 0.01,
        (false, true) => 0.1,
        (false, false) => 1.0,
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: one warm-up round, then timed rounds until
/// `seconds` have been measured, every round the same fixed work.
///
/// # Panics
///
/// Panics if `name` is not a declared workload.
pub fn run(name: &str, options: Options) -> Outcome {
    let workload = workloads::build(name, options.seed, scale(&options, false))
        .unwrap_or_else(|| panic!("unknown workload {name}"));
    let mut outcome = Outcome::new(name, options, false);
    if !options.smoke {
        std::hint::black_box(workload.round());
    }
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let round = workload.round();
        outcome.tally(&round.checks);
        rounds.push(round);
        let measured = started.elapsed().as_secs_f64() >= options.seconds;
        if options.smoke || (rounds.len() >= MIN_ROUNDS && measured) {
            break;
        }
    }
    outcome.rounds = rounds.len();

    let unstable = unstable_simulated(name, &rounds);
    outcome.tally(&[check(
        "simulated metrics identical across the rounds of the run",
        unstable.is_empty(),
        || unstable.join("; "),
    )]);

    let samples = |pick: &dyn Fn(&Round) -> Option<f64>| -> Vec<f64> {
        rounds.iter().filter_map(pick).collect()
    };
    for m in metrics::END_TO_END.iter().filter(|m| m.applies_to(name)) {
        let best = match m.better {
            Better::Higher => Best::High,
            Better::Lower => Best::Low,
        };
        let summary = match (m.name, m.clock) {
            ("work_per_s", _) => Summary::of(&samples(&|r| Some(r.work / r.run_s)), best),
            ("setup_s", _) => Summary::of(&samples(&|r| Some(r.setup_s)), best),
            ("peak_rss_mb", _) => Summary::exact(peak_rss_mb()),
            (_, Clock::Host) => Summary::of(&samples(&|r| lookup(&r.host, m.name)), best),
            (_, Clock::Simulated) => Summary::exact(
                lookup(&rounds[0].simulated, m.name)
                    .unwrap_or_else(|| panic!("{name} did not report {}", m.name)),
            ),
        };
        outcome.end_to_end.push((m, summary));
    }
    outcome
}

fn lookup(pairs: &[(&'static str, f64)], name: &str) -> Option<f64> {
    pairs.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// Simulated metrics that differ between rounds by more than the
/// metric's own allowance (zero, except the socket slack on
/// `live_udp`).
fn unstable_simulated(workload: &str, rounds: &[Round]) -> Vec<String> {
    let first = &rounds[0].simulated;
    let mut out = Vec::new();
    for (name, base) in first {
        let allowance = metrics::end_to_end(name).map_or(0.0, |m| m.allowance(workload, *base));
        for (i, r) in rounds.iter().enumerate().skip(1) {
            let v = lookup(&r.simulated, name);
            if v.is_none_or(|v| (v - base).abs() > allowance) {
                out.push(format!("{name}: round 0 = {base}, round {i} = {v:?}"));
            }
        }
    }
    out
}

/// The traced run: the `layers` step, then [`TRACE_PAIRS`] alternations
/// of an untraced and a traced round at a tenth of the horizon.
///
/// # Panics
///
/// Panics if `name` is not a declared workload.
pub fn run_traced(name: &str, options: Options) -> Outcome {
    let mut outcome = Outcome::new(name, options, true);
    let effort = if options.smoke { 0.01 } else { 1.0 };
    let mut layers = layers::measure(options.seed, effort);
    outcome.tally(&layer_checks(&layers));

    let workload = workloads::build(name, options.seed, scale(&options, true))
        .unwrap_or_else(|| panic!("unknown workload {name}"));
    if !options.smoke {
        std::hint::black_box(workload.round());
    }
    let pairs = if options.smoke { 1 } else { TRACE_PAIRS };
    outcome.rounds = pairs;
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut last: Option<(Round, Round, Trace)> = None;
    for _ in 0..pairs {
        let plain = workload.round();
        trace::install(SPAN_CAPACITY);
        let traced = workload.traced_round();
        let recording = trace::finish();
        outcome.tally(&plain.checks);
        outcome.tally(&traced.checks);
        plain_s.push(plain.run_s);
        traced_s.push(traced.run_s);
        last = Some((plain, traced, recording));
    }
    let (plain, traced, recording) = last.expect("at least one pair ran");
    let wall = fastest(&plain_s);
    layers.push((
        "trace.overhead_pct",
        100.0 * (fastest(&traced_s) - wall) / wall,
    ));

    // What the layer figures explain of the untraced round: every
    // operation the round counted, priced by its layer's ns per call.
    // Counts come from the untraced round's report where it has them,
    // from the traced round's own bookkeeping where only that loop sees
    // them, and from the decorators' span counts.
    let mut ops = plain.ops.clone();
    for op in traced.ops {
        if lookup(&ops, op.0).is_none() {
            ops.push(op);
        }
    }
    ops.extend(traced_ops(name, &recording));
    let explained_ns: f64 = ops
        .iter()
        .map(|(metric, count)| {
            let per_op = lookup(&layers, metric).unwrap_or(0.0);
            let unit = metrics::per_layer(metric).map_or("ns", |m| m.unit);
            count * per_op * if unit == "us" { 1e3 } else { 1.0 }
        })
        .sum();
    layers.push(("trace.accounted_share", explained_ns / (wall * 1e9)));

    for m in &metrics::PER_LAYER {
        let value = lookup(&layers, m.name)
            .unwrap_or_else(|| panic!("the layers step did not measure {}", m.name));
        outcome.per_layer.push((m, value));
    }
    outcome.trace = Some(recording);
    outcome
}

/// Operation counts only the decorators can see, priced by the layer
/// metric that measures one such call.
fn traced_ops(workload: &str, t: &Trace) -> Vec<(&'static str, f64)> {
    match workload {
        "chaos_campaign" => vec![
            ("chaos.decide_ge_ns", t.count(Name::ChaosDecide)),
            ("monitor.observe_ns_n8", t.count(Name::MonitorObserve)),
        ],
        "member_failover" => vec![
            ("member.mesh_send_ns", t.count(Name::MemberMeshSend)),
            ("member.mesh_recv_ns", t.count(Name::MemberMeshRecv)),
        ],
        "mck_scale" => vec![
            ("verify.next_states_ns", t.count(Name::VerifyActions)),
            ("verify.canonical_ns", t.count(Name::VerifyCanonical)),
            ("verify.ample_ns", t.count(Name::VerifyAmple)),
            ("verify.codec_encode_ns", t.count(Name::VerifyCodecEncode)),
            ("verify.codec_decode_ns", t.count(Name::VerifyCodecDecode)),
        ],
        _ => Vec::new(),
    }
}

/// The layer metrics that are verdicts rather than measurements.
fn layer_checks(layers: &Layers) -> Vec<Check> {
    [
        "net.wire_reject_accepted",
        "net.udp_soft_errors",
        "net.udp_decode_errors",
        "monitor.violations",
        "verify.stack_disagreements",
    ]
    .into_iter()
    .map(|name| {
        let v = lookup(layers, name);
        check("layer verdict counters are zero", v == Some(0.0), || {
            format!("{name} = {v:?}")
        })
    })
    .collect()
}
