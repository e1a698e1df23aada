//! Run a chaos campaign: sweep a fault grid (burst loss × partition ×
//! drift) over the protocol at several fix levels and report detection
//! delays against the claimed and corrected §6.2 bounds.
//!
//! ```text
//! cargo run --release --example chaos_campaign                  # full grid, sim
//! cargo run --release --example chaos_campaign -- --smoke       # CI grid, seed-pinned
//! cargo run --release --example chaos_campaign -- --backend live
//! cargo run --release --example chaos_campaign -- --monitor     # streaming R1–R3 verdicts
//! cargo run --release --example chaos_campaign -- --out artifacts/campaign.json
//! cargo run --release --example chaos_campaign -- --table       # markdown summary
//! cargo run --release --example chaos_campaign -- --rejoin artifacts
//! cargo run --release --example chaos_campaign -- --failover artifacts
//! cargo run --release --example chaos_campaign -- --diff a.json b.json
//! ```
//!
//! `--monitor` attaches a streaming `hb-monitor` requirement checker to
//! every run and gates the result: cells running under-corrected fixes
//! (the claimed `2·tmax` bound) must reproduce at least one R1 violation
//! per cell — the paper's bound error, caught online — while cells with
//! corrected bounds must come back monitor-clean. Any other outcome
//! exits non-zero.
//!
//! `--rejoin DIR` skips the grid and instead emits the §7 rejoin
//! demonstration artifacts (`rejoin_sim.json` / `rejoin_live.json`):
//! one seed-pinned reorder + crash + revive plan per backend, run with
//! epochs off and on.
//!
//! `--failover DIR` emits the coordinator-failover campaign artifacts
//! (`failover_sim.json` / `failover_live.json`): membership plans that
//! crash the coordinator mid-run on the `hb-member` group layer, fail
//! over to the lowest live pid, revive the ex-coordinator demoted, and
//! record the two-sided re-convergence metric — gated on group
//! agreement, demotion-not-split, clean R1–R3 monitors, and replay
//! determinism per cell.
//!
//! `--diff A B` compares two campaign reports cell by cell with the
//! calibrated sim-vs-live tolerances of [`hb_chaos::diff`], prints the
//! divergence report, and exits non-zero on any hard divergence — the
//! CI gate for the checked-in `campaign_gm98_sim.json` /
//! `campaign_gm98_live.json` artifact pair.
//!
//! The report is deterministic: the same grid, seeds, and backend always
//! produce byte-identical JSON, regardless of `--threads`. CI runs the
//! smoke grid twice and diffs the outputs.

use std::io::Write as _;

use accelerated_heartbeat::chaos::{
    diff_reports, run_campaign, run_failover_campaign, run_rejoin_demo, Backend, CampaignReport,
    CampaignSpec,
};
use accelerated_heartbeat::core::{FixLevel, Params, Variant};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The seed-pinned CI grid: 12 cells, 3 seeds, on `backend`, < 1 s.
fn smoke_spec(backend: Backend, threads: usize) -> CampaignSpec {
    CampaignSpec {
        name: "smoke".into(),
        backend,
        variant: Variant::Binary,
        params: Params::new(2, 8).unwrap(),
        n: 1,
        duration: 600,
        fixes: vec![
            FixLevel::Original,
            FixLevel::ReceivePriority,
            FixLevel::Full,
        ],
        loss: vec![0.0, 0.05],
        burst: vec![2.0],
        drift: vec![(1, 1)],
        partition: vec![0, 8],
        seeds: vec![1, 2, 3],
        threads,
        monitor: false,
    }
}

/// The full grid behind EXPERIMENTS.md: loss × burst × drift × partition
/// at three fix levels, ten seeds per cell.
fn full_spec(backend: Backend, threads: usize) -> CampaignSpec {
    CampaignSpec {
        name: "gm98-grid".into(),
        backend,
        variant: Variant::Binary,
        params: Params::new(2, 8).unwrap(),
        n: 1,
        duration: 2_000,
        fixes: vec![
            FixLevel::Original,
            FixLevel::ReceivePriority,
            FixLevel::Full,
        ],
        loss: vec![0.0, 0.02, 0.05],
        burst: vec![2.0],
        drift: vec![(1, 1), (101, 100)],
        partition: vec![0, 8],
        seeds: (1..=10).collect(),
        threads,
        monitor: false,
    }
}

/// The `--monitor` gate: under-corrected cells must reproduce the R1
/// bound breach (that is the paper's finding, observed online); cells
/// with corrected bounds must be monitor-clean. Drifted cells carry no
/// verdicts (`monitor_runs == 0` — local-clock stamps would alias skew
/// as breaches) and are exempt. Returns the offending cells.
fn monitor_gate(report: &CampaignReport) -> Vec<String> {
    let mut bad = Vec::new();
    for c in &report.cells {
        if c.monitor_runs == 0 {
            continue;
        }
        let label = format!(
            "{}/loss{}x{}/drift{}-{}/part{}",
            c.cell.fix.name(),
            c.cell.loss,
            c.cell.burst,
            c.cell.drift.0,
            c.cell.drift.1,
            c.cell.partition
        );
        if c.cell.fix.corrected_bounds() {
            if c.monitor_clean != c.monitor_runs {
                bad.push(format!(
                    "{label}: corrected-bounds cell not clean \
                     ({}/{} clean, r1={} r2={} r3={})",
                    c.monitor_clean, c.monitor_runs, c.monitor_r1, c.monitor_r2, c.monitor_r3
                ));
            }
        } else if c.monitor_r1 == 0 {
            bad.push(format!(
                "{label}: under-corrected cell failed to reproduce the \
                 claimed-bound R1 breach ({} monitored runs)",
                c.monitor_runs
            ));
        }
    }
    bad
}

/// Render the report as a markdown table (the EXPERIMENTS.md format).
fn markdown_table(report: &CampaignReport) -> String {
    let mut out = String::new();
    out.push_str(
        "| fix | loss | drift | partition | detected | down first | mean delay | max | \
         claimed | corrected | >claimed | >corrected | false susp. | reconv | detect mean | \
         detect max | stable | stable mean | stable max | stale adm. | mon clean | mon R1 | \
         mon first |\n",
    );
    out.push_str(
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\
         ---|---|---|\n",
    );
    for c in &report.cells {
        // Unmonitored (drifted) cells show "-" in every monitor column.
        let (mon_clean, mon_r1) = if c.monitor_runs == 0 {
            ("-".to_string(), "-".to_string())
        } else {
            (
                format!("{}/{}", c.monitor_clean, c.monitor_runs),
                c.monitor_r1.to_string(),
            )
        };
        let mon_first = c
            .monitor_first
            .map_or_else(|| "-".to_string(), |t| t.to_string());
        out.push_str(&format!(
            "| {} | {} | {}/{} | {} | {}/{} | {} | {:.1} | {} | {} | {} | {} | {} | {} | \
             {}/{} | {:.1} | {} | {}/{} | {:.1} | {} | {} | {} | {} | {} |\n",
            c.cell.fix.name(),
            c.cell.loss,
            c.cell.drift.0,
            c.cell.drift.1,
            c.cell.partition,
            c.detected,
            c.runs,
            c.down_before_crash,
            c.detect_mean,
            c.detect_max,
            c.claimed_bound,
            c.corrected_bound,
            c.violations_claimed,
            c.violations_corrected,
            c.false_suspicions,
            c.reconverged,
            c.runs,
            c.reconv_detect_mean,
            c.reconv_detect_max,
            c.stabilised,
            c.runs,
            c.reconv_stable_mean,
            c.reconv_stable_max,
            c.stale_admitted,
            mon_clean,
            mon_r1,
            mon_first,
        ));
    }
    out
}

/// The seed behind the checked-in rejoin artifacts (verified to separate
/// naive from epoch-tagged rejoin on both backends).
const REJOIN_SEED: u64 = 1;

/// Emit the §7 rejoin demonstration artifacts for both backends.
fn emit_rejoin_artifacts(dir: &str) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::create_dir_all(dir)?;
    for backend in [Backend::Sim, Backend::Live] {
        let demo = run_rejoin_demo(backend, REJOIN_SEED);
        let path = format!("{dir}/rejoin_{}.json", backend.name());
        let mut file = std::fs::File::create(&path)?;
        writeln!(file, "{}", demo.to_json())?;
        eprintln!(
            "rejoin demo ({}): naive admitted {} stale beat(s), epoch filtered {}, \
             re-detected in {:?} / stabilised in {:?} ticks, replay identical: {} -> {path}",
            backend.name(),
            demo.naive.stale_beats_admitted,
            demo.epoch.stale_beats_filtered,
            demo.epoch.reconv_detect,
            demo.epoch.reconv_stable,
            demo.replay_identical,
        );
        if !demo.separates() {
            return Err(format!("rejoin demo failed to separate on {}", backend.name()).into());
        }
    }
    Ok(())
}

/// Emit the coordinator-failover campaign artifacts for both backends.
fn emit_failover_artifacts(dir: &str) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::create_dir_all(dir)?;
    for backend in [Backend::Sim, Backend::Live] {
        let report = run_failover_campaign(backend);
        let path = format!("{dir}/failover_{}.json", backend.name());
        let mut file = std::fs::File::create(&path)?;
        writeln!(file, "{}", report.to_json())?;
        for c in &report.cells {
            eprintln!(
                "failover ({}): loss {:.3} seed {} -> coordinator {} demoted={} agreed={} \
                 detect {:?} / stable {:?} ticks, healthy={}",
                backend.name(),
                c.loss,
                c.seed,
                c.coordinator,
                c.demoted,
                c.agreed,
                c.summary.reconv_detect,
                c.summary.reconv_stable,
                c.healthy(),
            );
        }
        eprintln!(
            "failover campaign ({}): {} cells -> {path}",
            backend.name(),
            report.cells.len()
        );
        if !report.passes() {
            return Err(format!("failover campaign failed on {}", backend.name()).into());
        }
    }
    Ok(())
}

/// Diff two campaign reports under the calibrated tolerances; hard
/// divergences are fatal.
fn diff_reports_main(left: &str, right: &str) -> Result<(), Box<dyn std::error::Error>> {
    let l = std::fs::read_to_string(left)?;
    let r = std::fs::read_to_string(right)?;
    let report = diff_reports(&l, &r).map_err(|e| format!("malformed campaign report: {e:?}"))?;
    print!("{}", report.render());
    let hard = report.hard().len();
    if hard > 0 {
        return Err(format!("{hard} hard divergence(s) between {left} and {right}").into());
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = match arg_value(&args, "--threads") {
        Some(t) => t.parse()?,
        None => std::thread::available_parallelism().map_or(4, |p| p.get()),
    };
    let backend = match arg_value(&args, "--backend") {
        Some(name) => Backend::from_name(&name)
            .ok_or_else(|| format!("unknown backend {name:?} (sim|live)"))?,
        None => Backend::Sim,
    };
    if let Some(left) = arg_value(&args, "--diff") {
        let right = args
            .iter()
            .position(|a| a == "--diff")
            .and_then(|i| args.get(i + 2))
            .ok_or("--diff needs two report paths")?;
        return diff_reports_main(&left, right);
    }
    if let Some(dir) = arg_value(&args, "--rejoin") {
        return emit_rejoin_artifacts(&dir);
    }
    if let Some(dir) = arg_value(&args, "--failover") {
        return emit_failover_artifacts(&dir);
    }
    let mut spec = if args.iter().any(|a| a == "--smoke") {
        smoke_spec(backend, threads)
    } else {
        full_spec(backend, threads)
    };
    spec.monitor = args.iter().any(|a| a == "--monitor");

    let report = run_campaign(&spec);
    let json = report.to_json();

    if spec.monitor {
        let bad = monitor_gate(&report);
        for b in &bad {
            eprintln!("monitor gate: {b}");
        }
        if !bad.is_empty() {
            return Err(format!("monitor gate failed on {} cell(s)", bad.len()).into());
        }
        let gated = report.cells.iter().filter(|c| c.monitor_runs > 0).count();
        eprintln!(
            "monitor gate: {gated} cells ok (corrected-bounds cells clean, \
             under-corrected cells reproduce the R1 breach; {} drifted \
             cells unmonitored)",
            report.cells.len() - gated
        );
    }

    if let Some(path) = arg_value(&args, "--out") {
        let mut file = std::fs::File::create(&path)?;
        writeln!(file, "{json}")?;
        eprintln!(
            "campaign {:?}: {} cells, {} runs -> {path}",
            spec.name,
            report.cells.len(),
            report.total_runs()
        );
    }
    if args.iter().any(|a| a == "--table") {
        print!("{}", markdown_table(&report));
    } else {
        println!("{json}");
    }
    Ok(())
}
