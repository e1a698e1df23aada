//! The checked-in `artifacts/` are byte-pinned: regenerating each one
//! in process must reproduce it exactly. This is the repo's contract
//! that sim and live runs are deterministic functions of their plan —
//! any hot path change that perturbs RNG consumption order, event
//! ordering, or serialization shows up here as a byte diff, not as a
//! silent drift the campaign differ later has to explain.
//!
//! All six JSON artifacts are pinned, on both backends. `scripts/ci.sh`
//! alone would not notice the live harness drifting: it diffs only the
//! failover and rejoin pairs against the goldens and never regenerates
//! the live campaign. The Figure 1–2 `.dot` files are pinned too: they
//! are what says the isolated-process models in `hb_verify::solo` still
//! reduce to the paper's diagrams.

use accelerated_heartbeat::chaos::{
    run_campaign, run_failover_campaign, run_rejoin_demo, Backend, CampaignSpec,
};
use accelerated_heartbeat::core::{FixLevel, Params, Variant};
use accelerated_heartbeat::verify::solo::{p0_figure_lts, p1_figure_lts};

/// The seed behind the checked-in rejoin artifacts (mirrors the
/// `chaos_campaign` example's `REJOIN_SEED`).
const REJOIN_SEED: u64 = 1;

fn checked_in(name: &str) -> String {
    let path = format!("{}/artifacts/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn assert_rejoin_pinned(backend: Backend) {
    let name = format!("rejoin_{}.json", backend.name());
    let demo = run_rejoin_demo(backend, REJOIN_SEED);
    assert_eq!(
        format!("{}\n", demo.to_json()),
        checked_in(&name),
        "{name} drifted from the checked-in golden"
    );
}

#[test]
fn rejoin_sim_artifact_is_byte_identical() {
    assert_rejoin_pinned(Backend::Sim);
}

#[test]
fn rejoin_live_artifact_is_byte_identical() {
    assert_rejoin_pinned(Backend::Live);
}

fn assert_failover_pinned(backend: Backend) {
    let name = format!("failover_{}.json", backend.name());
    let report = run_failover_campaign(backend);
    assert_eq!(
        format!("{}\n", report.to_json()),
        checked_in(&name),
        "{name} drifted from the checked-in golden"
    );
}

#[test]
fn failover_sim_artifact_is_byte_identical() {
    assert_failover_pinned(Backend::Sim);
}

#[test]
fn failover_live_artifact_is_byte_identical() {
    assert_failover_pinned(Backend::Live);
}

/// The grid behind `artifacts/campaign_gm98_{sim,live}.json` (the
/// `chaos_campaign` example's `full_spec`, with `--monitor` on — the
/// configuration the artifacts were emitted with).
fn gm98_grid(backend: Backend) -> CampaignSpec {
    CampaignSpec {
        name: "gm98-grid".into(),
        backend,
        variant: Variant::Binary,
        params: Params::new(2, 8).expect("valid"),
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
        threads: 2,
        monitor: true,
    }
}

fn assert_campaign_pinned(backend: Backend) {
    let name = format!("campaign_gm98_{}.json", backend.name());
    let report = run_campaign(&gm98_grid(backend));
    assert_eq!(
        format!("{}\n", report.to_json()),
        checked_in(&name),
        "{name} drifted from the checked-in golden"
    );
}

#[test]
fn campaign_sim_artifact_is_byte_identical() {
    assert_campaign_pinned(Backend::Sim);
}

#[test]
fn campaign_live_artifact_is_byte_identical() {
    assert_campaign_pinned(Backend::Live);
}

/// `examples/export_artifacts.rs` writes these two at `tmax = 2, tmin = 1`.
#[test]
fn figure_dot_artifacts_are_byte_identical() {
    let params = Params::new(1, 2).expect("valid");
    for (name, lts) in [
        ("figure1_p0.dot", p0_figure_lts(params)),
        ("figure2_p1.dot", p1_figure_lts(params)),
    ] {
        assert_eq!(lts.to_dot(), checked_in(name), "{name} drifted");
    }
}
