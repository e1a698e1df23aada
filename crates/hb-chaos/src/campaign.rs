//! Parallel chaos campaigns: sweeping a fault grid over many seeded
//! runs and aggregating detection and overhead statistics.
//!
//! A [`CampaignSpec`] is the cartesian grid
//! `fix × loss × burst × drift × partition`; every cell runs three plans
//! per seed — one with a participant crash at mid-run (measuring
//! detection delay against the claimed and corrected §6.2 bounds), one
//! with the crash followed by a §7 revive (measuring re-convergence and
//! stale-beat admission), and one quiet (measuring false suspicions and
//! steady-state overhead). The three are one run up to the crash: both
//! backends run that prefix once and fork the world or the cluster at
//! the crash tick. Cells are distributed
//! across worker threads; results are collected in grid order, so the
//! emitted report is deterministic and a campaign re-run diffs clean
//! (the CI smoke campaign relies on this).

use hb_core::fault::Time;
use hb_core::schema::RunSummary;
use hb_core::{FixLevel, Params, Pid, Variant};

use crate::json::{self, ToJson};
use crate::pipeline::burst_model;
use crate::plan::{FaultPlan, FaultSpec, Link, ProtoSpec, Window};
use crate::{runner, Backend};

/// The campaign grid and its fixed protocol context. A seed's three
/// plans ([`RunKind`]) share one run, a world or a cluster, up to
/// `duration / 2`.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Campaign name (embedded in the report and the per-run plan names).
    pub name: String,
    /// Which substrate executes the runs.
    pub backend: Backend,
    /// Protocol variant.
    pub variant: Variant,
    /// Timing parameters.
    pub params: Params,
    /// Number of participants.
    pub n: usize,
    /// Run length in ticks.
    pub duration: Time,
    /// Grid axis: fix levels.
    pub fixes: Vec<FixLevel>,
    /// Grid axis: average loss probabilities (0 = lossless).
    pub loss: Vec<f64>,
    /// Grid axis: mean burst lengths in messages (1 ≈ independent).
    pub burst: Vec<f64>,
    /// Grid axis: participant-1 clock rates as `(num, den)`; `(1, 1)` is
    /// no drift. Only the live backend applies drift; the simulator notes
    /// it and runs undrifted.
    pub drift: Vec<(u64, u64)>,
    /// Grid axis: transient coordinator-partition durations in ticks
    /// (0 = none). The partition opens at `duration / 4` and always heals
    /// before the mid-run crash.
    pub partition: Vec<Time>,
    /// Seeds; each cell runs every seed.
    pub seeds: Vec<u64>,
    /// Worker threads (clamped to at least 1).
    pub threads: usize,
    /// Attach a streaming R1–R3 monitor (`hb-monitor`) to every run and
    /// aggregate its verdicts per cell. Under-corrected cells are
    /// *expected* to fire R1 (the claimed `2·tmax` bound is wrong — that
    /// is the paper's point); corrected cells must stay clean. Drifted
    /// cells run unmonitored: nodes stamp events on their local clocks,
    /// so a global-deadline monitor would measure the accumulated skew,
    /// not the protocol — and the simulator does not apply drift at all,
    /// so the two backends' verdicts would not be comparable.
    pub monitor: bool,
}

/// One grid point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cell {
    /// Fix level under test.
    pub fix: FixLevel,
    /// Average loss probability.
    pub loss: f64,
    /// Mean burst length.
    pub burst: f64,
    /// Participant-1 clock rate.
    pub drift: (u64, u64),
    /// Transient partition duration (0 = none).
    pub partition: Time,
}

/// Aggregated results of one cell across all seeds.
#[derive(Clone, Debug)]
pub struct CellStats {
    /// The grid point.
    pub cell: Cell,
    /// Seeds executed.
    pub runs: usize,
    /// Crash runs in which the crash was detected before the horizon.
    pub detected: usize,
    /// Crash runs in which the faults had already inactivated the victim
    /// before the scheduled crash — the network was down, so no
    /// detection-bound claim applies (the quiet runs count the same
    /// failure as false suspicions).
    pub down_before_crash: usize,
    /// Mean detection delay over detected runs.
    pub detect_mean: f64,
    /// Worst detection delay.
    pub detect_max: Time,
    /// The paper's claimed detection bound for this cell.
    pub claimed_bound: Time,
    /// The corrected (§6.2) detection bound.
    pub corrected_bound: Time,
    /// Crash runs whose detection exceeded the claimed bound, or in
    /// which a live network never detected the crash at all.
    pub violations_claimed: usize,
    /// Like [`violations_claimed`](Self::violations_claimed) against the
    /// corrected bound.
    pub violations_corrected: usize,
    /// False suspicions summed over the quiet runs.
    pub false_suspicions: u64,
    /// Mean messages per tick over the quiet runs (steady-state
    /// overhead).
    pub msg_per_tick: f64,
    /// Revive runs in which the revived participant's fresh epoch was
    /// re-registered at the coordinator before the horizon (detection
    /// side of re-convergence).
    pub reconverged: usize,
    /// Mean revive-to-detection delay over re-converged runs.
    pub reconv_detect_mean: f64,
    /// Worst revive-to-detection delay.
    pub reconv_detect_max: Time,
    /// Revive runs in which the revived participant additionally became
    /// active and joined again (stability side of re-convergence).
    pub stabilised: usize,
    /// Mean revive-to-stability delay over stabilised runs.
    pub reconv_stable_mean: f64,
    /// Worst revive-to-stability delay.
    pub reconv_stable_max: Time,
    /// Stale (superseded-epoch) beats the coordinator admitted as fresh,
    /// summed over the revive runs.
    pub stale_admitted: u64,
    /// Runs executed with a streaming monitor attached (0 when the
    /// campaign ran unmonitored).
    pub monitor_runs: usize,
    /// Monitored runs with no violation of any requirement.
    pub monitor_clean: usize,
    /// Monitored runs whose R1 monitor fired (a participant silent past
    /// the cell's inactivation bound while the coordinator stayed
    /// active).
    pub monitor_r1: usize,
    /// Monitored runs whose R2 monitor fired (a participant
    /// non-voluntarily inactivated in a fault-free run).
    pub monitor_r2: usize,
    /// Monitored runs whose R3 monitor fired (the coordinator
    /// non-voluntarily inactivated in a fault-free run with every
    /// participant active).
    pub monitor_r3: usize,
    /// Earliest first-violation tick across all monitored runs, if any
    /// monitor fired.
    pub monitor_first: Option<Time>,
}

/// A finished campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The spec it ran.
    pub spec: CampaignSpec,
    /// One entry per grid cell, in grid order.
    pub cells: Vec<CellStats>,
}

impl CampaignSpec {
    /// The grid in deterministic (report) order.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for &fix in &self.fixes {
            for &loss in &self.loss {
                for &burst in &self.burst {
                    for &drift in &self.drift {
                        for &partition in &self.partition {
                            out.push(Cell {
                                fix,
                                loss,
                                burst,
                                drift,
                                partition,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// The detection bound the paper claims for this configuration: the
    /// coordinator's own bound, plus — with more than one participant —
    /// the responders' original bound for the rest of the network to
    /// follow.
    pub fn claimed_bound(&self) -> Time {
        let p0 = Time::from(self.params.p0_bound_claimed());
        if self.n > 1 {
            p0 + Time::from(self.params.responder_bound_original())
        } else {
            p0
        }
    }

    /// The corrected (§6.2) counterpart of [`claimed_bound`](Self::claimed_bound).
    pub fn corrected_bound(&self) -> Time {
        let p0 = Time::from(self.params.p0_bound_corrected(self.variant));
        if self.n > 1 {
            p0 + Time::from(self.params.responder_bound_corrected(self.variant))
        } else {
            p0
        }
    }
}

/// The crashing participant in campaign runs.
pub const CRASH_PID: Pid = 1;

/// Which of the per-seed runs a campaign plan describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunKind {
    /// No lifecycle fault: false suspicions and steady-state overhead.
    Quiet,
    /// Participant 1 crashes at mid-run and stays down: detection delay.
    Crash,
    /// The mid-run crash followed by a §7 revive half a `tmax` later:
    /// re-convergence and stale-beat admission.
    CrashRevive,
}

impl RunKind {
    fn suffix(self) -> &'static str {
        match self {
            RunKind::Quiet => "/quiet",
            RunKind::Crash => "/crash",
            RunKind::CrashRevive => "/revive",
        }
    }
}

/// Build the fault plan for one `(cell, seed)` run of a campaign.
pub fn cell_plan(spec: &CampaignSpec, cell: &Cell, seed: u64, kind: RunKind) -> FaultPlan {
    let proto = ProtoSpec {
        variant: spec.variant,
        params: spec.params,
        fix: cell.fix,
        n: spec.n,
        duration: spec.duration,
        membership: false,
    };
    let mut plan = FaultPlan::new(
        format!(
            "{}/{}/loss{}x{}/drift{}-{}/part{}/s{}{}",
            spec.name,
            cell.fix.name(),
            cell.loss,
            cell.burst,
            cell.drift.0,
            cell.drift.1,
            cell.partition,
            seed,
            kind.suffix()
        ),
        seed,
        proto,
    );
    if cell.loss > 0.0 {
        plan = plan.with(FaultSpec::Loss {
            window: Window::always(),
            link: Link::any(),
            model: burst_model(cell.loss, cell.burst),
        });
    }
    if cell.partition > 0 {
        let from = spec.duration / 4;
        // Heal strictly before the crash so detection is measured on a
        // connected network.
        let to = (from + cell.partition).min(spec.duration / 2);
        plan = plan.with(FaultSpec::Partition {
            window: Window::between(from, to),
            groups: vec![vec![0], (1..=spec.n).collect()],
        });
    }
    if cell.drift != (1, 1) {
        plan = plan.with(FaultSpec::Drift {
            pid: CRASH_PID,
            offset: 0,
            num: cell.drift.0,
            den: cell.drift.1,
        });
    }
    if kind != RunKind::Quiet {
        plan = plan.with(FaultSpec::Crash {
            pid: CRASH_PID,
            at: spec.duration / 2,
        });
    }
    if kind == RunKind::CrashRevive {
        // Half a round later: strictly after the crash, but well inside
        // the coordinator's detection chain, so the revived incarnation
        // can re-register before the cluster shuts down.
        plan = plan.with(FaultSpec::Revive {
            pid: CRASH_PID,
            at: spec.duration / 2 + Time::from(spec.params.tmax() / 2).max(1),
        });
    }
    plan
}

/// Execute one cell over every seed.
fn run_cell(spec: &CampaignSpec, cell: &Cell) -> CellStats {
    let claimed = spec.claimed_bound();
    let corrected = spec.corrected_bound();
    let mut detected = 0usize;
    let mut down_before_crash = 0usize;
    let mut detect_sum = 0u128;
    let mut detect_max = 0;
    let mut violations_claimed = 0;
    let mut violations_corrected = 0;
    let mut false_suspicions = 0u64;
    let mut rate_sum = 0.0f64;
    let mut reconverged = 0usize;
    let mut detect_delay_sum = 0u128;
    let mut reconv_detect_max = 0;
    let mut stabilised = 0usize;
    let mut stable_delay_sum = 0u128;
    let mut reconv_stable_max = 0;
    let mut stale_admitted = 0u64;
    let mut monitor_runs = 0usize;
    let mut monitor_clean = 0usize;
    let mut monitor_r1 = 0usize;
    let mut monitor_r2 = 0usize;
    let mut monitor_r3 = 0usize;
    let mut monitor_first: Option<Time> = None;
    // Drifted cells run unmonitored (see `CampaignSpec::monitor`): their
    // event stamps come from skewed local clocks, which a global-deadline
    // monitor would misread as requirement breaches.
    let monitored = spec.monitor && cell.drift == (1, 1);
    let exec = |plans: &[FaultPlan]| {
        let monitor = monitored.then(|| runner::monitor(&plans[0]));
        runner::run_plans(plans, spec.backend, monitor)
    };
    let mut tally = |s: &RunSummary| {
        let Some(v) = &s.monitor else { return };
        monitor_runs += 1;
        if v.clean() {
            monitor_clean += 1;
        }
        for (hit, count) in [
            (v.r1, &mut monitor_r1),
            (v.r2, &mut monitor_r2),
            (v.r3, &mut monitor_r3),
        ] {
            if let Some(f) = hit {
                *count += 1;
                monitor_first = Some(monitor_first.map_or(f.at, |t| t.min(f.at)));
            }
        }
    };
    for &seed in &spec.seeds {
        let kinds = [RunKind::Crash, RunKind::CrashRevive, RunKind::Quiet];
        let plans = kinds.map(|kind| cell_plan(spec, cell, seed, kind));
        let Ok([crashed, revive, quiet]) = <[RunSummary; 3]>::try_from(exec(&plans)) else {
            unreachable!("one summary per plan");
        };
        tally(&crashed);
        match crashed.detection_delay {
            Some(d) => {
                detected += 1;
                detect_sum += u128::from(d);
                detect_max = detect_max.max(d);
                if d > claimed {
                    violations_claimed += 1;
                }
                if d > corrected {
                    violations_corrected += 1;
                }
            }
            None if crashed.crashes.is_empty() => {
                // The faults inactivated the victim first: the bound
                // claims don't apply to a network that was already down.
                down_before_crash += 1;
            }
            None => {
                // A live crash was never detected before the horizon:
                // worse than any bound.
                violations_claimed += 1;
                violations_corrected += 1;
            }
        }
        tally(&revive);
        if let Some(d) = revive.reconv_detect {
            reconverged += 1;
            detect_delay_sum += u128::from(d);
            reconv_detect_max = reconv_detect_max.max(d);
        }
        if let Some(d) = revive.reconv_stable {
            stabilised += 1;
            stable_delay_sum += u128::from(d);
            reconv_stable_max = reconv_stable_max.max(d);
        }
        stale_admitted += u64::from(revive.stale_beats_admitted);
        tally(&quiet);
        false_suspicions += u64::from(quiet.false_inactivations);
        rate_sum += quiet.message_rate();
    }
    CellStats {
        cell: *cell,
        runs: spec.seeds.len(),
        detected,
        down_before_crash,
        detect_mean: if detected > 0 {
            detect_sum as f64 / detected as f64
        } else {
            0.0
        },
        detect_max,
        claimed_bound: claimed,
        corrected_bound: corrected,
        violations_claimed,
        violations_corrected,
        false_suspicions,
        msg_per_tick: if spec.seeds.is_empty() {
            0.0
        } else {
            rate_sum / spec.seeds.len() as f64
        },
        reconverged,
        reconv_detect_mean: if reconverged > 0 {
            detect_delay_sum as f64 / reconverged as f64
        } else {
            0.0
        },
        reconv_detect_max,
        stabilised,
        reconv_stable_mean: if stabilised > 0 {
            stable_delay_sum as f64 / stabilised as f64
        } else {
            0.0
        },
        reconv_stable_max,
        stale_admitted,
        monitor_runs,
        monitor_clean,
        monitor_r1,
        monitor_r2,
        monitor_r3,
        monitor_first,
    }
}

/// Run the whole campaign, fanning cells out over worker threads.
/// Results come back in grid order regardless of scheduling, so the
/// report is deterministic.
pub fn run_campaign(spec: &CampaignSpec) -> CampaignReport {
    let cells = spec.cells();
    let threads = spec.threads.max(1).min(cells.len().max(1));
    let mut indexed: Vec<(usize, CellStats)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..threads {
            let cells = &cells;
            handles.push(scope.spawn(move || {
                cells
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % threads == w)
                    .map(|(i, cell)| (i, run_cell(spec, cell)))
                    .collect::<Vec<_>>()
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    indexed.sort_by_key(|&(i, _)| i);
    CampaignReport {
        spec: spec.clone(),
        cells: indexed.into_iter().map(|(_, s)| s).collect(),
    }
}

impl CellStats {
    /// This cell as a single-line JSON object.
    pub fn to_json(&self) -> String {
        json::render(self)
    }
}

impl ToJson for CellStats {
    fn write_json(&self, out: &mut String) {
        let (cell, (num, den)) = (&self.cell, self.cell.drift);
        json::object(out, |o| {
            o.field("fix", cell.fix.name())
                .field("loss", cell.loss)
                .field("burst", cell.burst)
                .field("drift", format!("{num}/{den}"))
                .field("partition", cell.partition)
                .field("runs", self.runs)
                .field("detected", self.detected)
                .field("down_before_crash", self.down_before_crash)
                .fixed("detect_mean", self.detect_mean, 3)
                .field("detect_max", self.detect_max)
                .field("claimed_bound", self.claimed_bound)
                .field("corrected_bound", self.corrected_bound)
                .field("violations_claimed", self.violations_claimed)
                .field("violations_corrected", self.violations_corrected)
                .field("false_suspicions", self.false_suspicions)
                .fixed("msg_per_tick", self.msg_per_tick, 4)
                .field("reconverged", self.reconverged)
                .fixed("reconv_detect_mean", self.reconv_detect_mean, 3)
                .field("reconv_detect_max", self.reconv_detect_max)
                .field("stabilised", self.stabilised)
                .fixed("reconv_stable_mean", self.reconv_stable_mean, 3)
                .field("reconv_stable_max", self.reconv_stable_max)
                .field("stale_admitted", self.stale_admitted)
                .field("monitor_runs", self.monitor_runs)
                .field("monitor_clean", self.monitor_clean)
                .field("monitor_r1", self.monitor_r1)
                .field("monitor_r2", self.monitor_r2)
                .field("monitor_r3", self.monitor_r3)
                .field("monitor_first", self.monitor_first);
        });
    }
}

impl ToJson for CampaignReport {
    fn write_json(&self, out: &mut String) {
        let spec = &self.spec;
        json::object(out, |o| {
            o.field("record", "campaign")
                .field("name", &spec.name)
                .field("backend", spec.backend.name())
                .field("variant", spec.variant.name())
                .field("tmin", spec.params.tmin())
                .field("tmax", spec.params.tmax())
                .field("n", spec.n)
                .field("duration", spec.duration)
                .field("seeds", spec.seeds.len())
                .field("monitor", spec.monitor)
                .field("cells", &self.cells);
        });
    }
}

impl CampaignReport {
    /// The whole campaign as a single-line JSON report.
    pub fn to_json(&self) -> String {
        json::render(self)
    }

    /// Total runs executed (three per cell per seed: crash, crash+revive,
    /// quiet).
    pub fn total_runs(&self) -> usize {
        3 * self.cells.len() * self.spec.seeds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(backend: Backend, threads: usize) -> CampaignSpec {
        CampaignSpec {
            name: "unit".into(),
            backend,
            variant: Variant::Binary,
            params: Params::new(2, 8).unwrap(),
            n: 1,
            duration: 600,
            fixes: vec![FixLevel::Original, FixLevel::Full],
            loss: vec![0.0, 0.05],
            burst: vec![2.0],
            drift: vec![(1, 1)],
            partition: vec![0, 8],
            seeds: vec![1, 2],
            threads,
            monitor: false,
        }
    }

    #[test]
    fn grid_order_is_deterministic_and_complete() {
        let spec = small_spec(Backend::Sim, 1);
        let cells = spec.cells();
        // fixes × loss × burst × drift × partition = 2·2·1·1·2
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].fix, FixLevel::Original);
        assert_eq!(cells[0].partition, 0);
        assert_eq!(cells[1].partition, 8);
        assert_eq!(cells.last().unwrap().fix, FixLevel::Full);
    }

    #[test]
    fn parallel_and_serial_campaigns_agree_byte_for_byte() {
        let serial = run_campaign(&small_spec(Backend::Sim, 1)).to_json();
        let parallel = run_campaign(&small_spec(Backend::Sim, 4)).to_json();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn healthy_cells_detect_within_corrected_bounds() {
        let report = run_campaign(&small_spec(Backend::Sim, 2));
        for cell in &report.cells {
            assert_eq!(cell.runs, 2);
            assert_eq!(
                cell.detected + cell.down_before_crash,
                2,
                "every crash run ends detected or pre-starved: {:?}",
                cell.cell
            );
            if cell.cell.loss == 0.0 && cell.cell.partition == 0 {
                assert_eq!(cell.detected, 2, "clean cells always detect");
                assert_eq!(cell.reconverged, 2, "clean revives re-register");
                assert_eq!(cell.stabilised, 2, "clean revives stabilise");
                assert!(
                    cell.reconv_detect_max <= cell.corrected_bound,
                    "re-convergence within the corrected bound: {:?}",
                    cell.cell
                );
                assert!(
                    cell.reconv_stable_mean >= cell.reconv_detect_mean,
                    "stability never precedes detection: {:?}",
                    cell.cell
                );
            }
            assert_eq!(
                cell.violations_corrected, 0,
                "corrected bound must hold: {:?}",
                cell.cell
            );
            assert!(cell.msg_per_tick > 0.0);
        }
    }

    #[test]
    fn monitored_campaigns_separate_naive_from_corrected_cells() {
        // Lossless cells only: the monitor story is sharpest there. The
        // Original-fix watchdog checks the claimed 2·tmax bound, which
        // the crash runs breach (the real inactivation chain takes up to
        // 3·tmax − tmin); the Full-fix watchdog checks the corrected
        // bound, which the model proves unbreachable without faults on
        // the monitored path.
        let spec = CampaignSpec {
            loss: vec![0.0],
            partition: vec![0],
            monitor: true,
            ..small_spec(Backend::Sim, 2)
        };
        let report = run_campaign(&spec);
        for cell in &report.cells {
            // Every run of every seed was monitored: 3 kinds × 2 seeds.
            assert_eq!(cell.monitor_runs, 6, "{:?}", cell.cell);
            assert_eq!(
                cell.monitor_clean + cell.monitor_r1 + cell.monitor_r2 + cell.monitor_r3,
                cell.monitor_runs,
                "verdicts partition the runs (one requirement per run \
                 here): {:?}",
                cell.cell
            );
            if cell.cell.fix.corrected_bounds() {
                assert_eq!(cell.monitor_clean, cell.monitor_runs, "{:?}", cell.cell);
                assert_eq!(cell.monitor_first, None);
            } else {
                // Each seed's crash run breaches the claimed R1 bound.
                assert!(cell.monitor_r1 >= 2, "{:?}: {cell:?}", cell.cell);
                assert!(cell.monitor_first.is_some());
            }
        }
        // The unmonitored campaign reports zeros.
        let plain = run_campaign(&CampaignSpec {
            monitor: false,
            ..spec
        });
        assert!(plain.cells.iter().all(|c| c.monitor_runs == 0));
    }

    #[test]
    fn report_json_carries_the_grid() {
        let report = run_campaign(&CampaignSpec {
            fixes: vec![FixLevel::Full],
            loss: vec![0.0],
            partition: vec![0],
            seeds: vec![7],
            ..small_spec(Backend::Sim, 1)
        });
        let json = report.to_json();
        assert!(json.contains("\"record\":\"campaign\""), "{json}");
        assert!(json.contains("\"backend\":\"sim\""), "{json}");
        assert!(json.contains("\"fix\":\"full-fix\""), "{json}");
        assert!(json.contains("\"reconverged\":"), "{json}");
        assert!(json.contains("\"reconv_detect_mean\":"), "{json}");
        assert!(json.contains("\"reconv_stable_max\":"), "{json}");
        assert_eq!(report.total_runs(), 3);
    }

    #[test]
    fn cell_plans_are_valid_and_heal_partitions_before_the_crash() {
        let spec = small_spec(Backend::Sim, 1);
        for cell in spec.cells() {
            for kind in [RunKind::Quiet, RunKind::Crash, RunKind::CrashRevive] {
                let plan = cell_plan(&spec, &cell, 9, kind);
                plan.validate().expect("campaign plans must validate");
                for f in &plan.faults {
                    if let FaultSpec::Partition { window, .. } = f {
                        assert!(window.to.unwrap() <= spec.duration / 2);
                    }
                }
                assert_eq!(plan.first_crash().is_some(), kind != RunKind::Quiet);
                let revives = plan
                    .faults
                    .iter()
                    .any(|f| matches!(f, FaultSpec::Revive { .. }));
                assert_eq!(revives, kind == RunKind::CrashRevive);
            }
        }
    }
}
