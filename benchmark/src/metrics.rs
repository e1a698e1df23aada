//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the end-to-end
//! metric each is expected to move.
//!
//! `BENCHMARK.json` at the repository root repeats the part of this the
//! regression driver reads (workloads, the end-to-end metrics every
//! workload reports, every per-layer metric); a unit test keeps the two
//! in step. `--compare` applies the bounds below.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// What a metric's value is made of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of this process (or memory it held): varies run to run.
    Host,
    /// Protocol ticks and message counts: repeat exactly for a seed.
    Simulated,
}

impl Clock {
    /// Short label for tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Simulated => "simulated",
        }
    }
}

/// One workload and the reason it exists.
pub struct WorkloadDef {
    /// Name on the command line and in reports.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
}

/// The six workloads, in run order.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "sim_steady",
        why: "hb_sim::World, static n=8, lossless, no tap or log: the bare hb-core + hb-sim tick path; no wire, pipeline or monitor runs",
    },
    WorkloadDef {
        name: "live_loopback",
        why: "hb_net::VirtualCluster, same cell and crash as sim_steady: the gap to it is hb-net cluster+node+loopback cost; hb_sim::World does nothing",
    },
    WorkloadDef {
        name: "live_udp",
        why: "5 NodeRuntime<UdpTransport> on 127.0.0.1 under injected ticks: real encode/decode and syscalls over the host loopback interface; VirtualCluster bypassed",
    },
    WorkloadDef {
        name: "chaos_campaign",
        why: "hb_chaos run_campaign, static n=4, monitored loss x burst x partition grid on Sim then Live: the faulty path (pipeline, plans, monitors, summaries)",
    },
    WorkloadDef {
        name: "member_failover",
        why: "hb_member run_sim then run_live, group 8, coordinator crash+revive and a participant crash under 2% loss: view change, takeover and state transfer over Mesh",
    },
    WorkloadDef {
        name: "mck_scale",
        why: "hb_verify scale_cell R2 full fix, static n=8 and expanding n=4 over the sym/por/packed stacks: checker only, no runtime layer executes",
    },
];

/// Whether `name` is a declared workload.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

use Better::{Higher, Lower};
use Clock::{Host, Simulated};

/// The workload sets of the end-to-end table; empty means all six.
const ALL: &[&str] = &[];
const CHAOS: &[&str] = &["chaos_campaign"];
const MCK: &[&str] = &["mck_scale"];
const STEADY_AND_MEMBER: &[&str] = &["sim_steady", "live_loopback", "live_udp", "member_failover"];
/// Every workload except the checker one: those with a protocol run.
const PROTOCOL: &[&str] = &[
    "sim_steady",
    "live_loopback",
    "live_udp",
    "chaos_campaign",
    "member_failover",
];

/// One end-to-end metric.
///
/// Host-time metrics all carry the widest bound the regression driver
/// accepts, 25 %: on the reference box even the best round of a 15 s
/// run moves by 2–23 % between runs of unchanged code, depending on how
/// busy the host's neighbours are (see the README's *Reading the
/// numbers*), and `peak_rss_mb` steps by 18 % with the seed on
/// `member_failover` as an event log crosses an allocator growth step.
/// Simulated metrics may not move at all.
#[derive(Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Host or simulated.
    pub clock: Clock,
    /// Share of the baseline value by which the metric may get worse.
    pub bound: f64,
    /// The workloads that report it; empty means all six.
    pub workloads: &'static [&'static str],
}

/// The three metrics every workload reports — the ones `BENCHMARK.json`
/// lists under `end_to_end`, because the driver expects each of its
/// metrics from each workload. `work_per_s` is the workload's own rate
/// under a common name: beats/s on the four protocol-run workloads,
/// campaign runs/s (both halves) on `chaos_campaign`, states/s on
/// `mck_scale`.
pub const UNIVERSAL: [&str; 3] = ["work_per_s", "peak_rss_mb", "setup_s"];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
    workloads: &'static [&'static str],
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        clock,
        bound,
        workloads,
    }
}

/// All end-to-end metrics: name, unit, direction, clock, bound, workloads.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 14] = [
    e2e("work_per_s",        "1/s",    Higher, Host,      0.25, ALL),
    e2e("peak_rss_mb",       "MB",     Lower,  Host,      0.25, ALL),
    e2e("setup_s",           "s",      Lower,  Host,      0.25, ALL),
    e2e("beats_per_s",       "1/s",    Higher, Host,      0.25, STEADY_AND_MEMBER),
    e2e("sim_runs_per_s",    "1/s",    Higher, Host,      0.25, CHAOS),
    e2e("live_runs_per_s",   "1/s",    Higher, Host,      0.25, CHAOS),
    e2e("verdict_s",         "s",      Lower,  Host,      0.25, MCK),
    e2e("states_per_s",      "1/s",    Higher, Host,      0.25, MCK),
    e2e("peak_store_bytes",  "bytes",  Lower,  Simulated, 0.0,  MCK),
    e2e("detect_ticks_mean", "ticks",  Lower,  Simulated, 0.0,  PROTOCOL),
    e2e("detect_ticks_max",  "ticks",  Lower,  Simulated, 0.0,  PROTOCOL),
    e2e("msgs_per_tick",     "1/tick", Lower,  Simulated, 0.0,  PROTOCOL),
    e2e("false_inact_rate",  "ratio",  Lower,  Simulated, 0.0,  CHAOS),
    e2e("reconv_ticks_max",  "ticks",  Lower,  Simulated, 0.0,  &["chaos_campaign", "member_failover"]),
];

/// The definition of end-to-end metric `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

impl EndToEnd {
    /// Whether `workload` reports this metric.
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }

    /// How much worse than `base` the metric may read on `workload`
    /// before it is a regression, in the metric's own unit. Real sockets
    /// may deliver a datagram one poll late, so `live_udp` gets one tick
    /// of slack on detection and 1 % on message overhead; set-up times
    /// under 10 ms are allowed 2 ms.
    pub fn allowance(&self, workload: &str, base: f64) -> f64 {
        let rel = base.abs() * self.bound;
        match (self.name, workload) {
            ("setup_s", _) => rel.max(0.002),
            ("detect_ticks_mean" | "detect_ticks_max", "live_udp") => 1.0,
            ("msgs_per_tick", "live_udp") => base.abs() * 0.01,
            _ => rel,
        }
    }
}

/// One per-layer metric.
#[derive(Debug)]
pub struct Layer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

/// Every per-layer metric, grouped by crate: name, unit, direction, and
/// the end-to-end metric and workload it should move.
#[rustfmt::skip]
pub const PER_LAYER: [Layer; 72] = [
    // hb-core
    layer("core.coord_timeout_ns",         "ns",     Lower,  "beats_per_s on sim_steady (most), live_loopback (little)"),
    layer("core.coord_heartbeat_ns",       "ns",     Lower,  "beats_per_s on sim_steady"),
    layer("core.resp_beat_ns",             "ns",     Lower,  "beats_per_s on sim_steady"),
    layer("core.tick_ns",                  "ns",     Lower,  "beats_per_s on sim_steady"),
    layer("core.sink_emit_ns",             "ns",     Lower,  "sim_runs_per_s on chaos_campaign; nothing on sim_steady (sink disabled)"),
    layer("core.event_json_ns",            "ns",     Lower,  "none gated (writer sinks only)"),
    // hb-sim
    layer("sim.step_ns_n1",                "ns",     Lower,  "beats_per_s on sim_steady"),
    layer("sim.step_ns_n8",                "ns",     Lower,  "beats_per_s on sim_steady"),
    layer("sim.step_ns_n64",               "ns",     Lower,  "beats_per_s on sim_steady"),
    layer("sim.channel_send_ns",           "ns",     Lower,  "beats_per_s on sim_steady; sim_runs_per_s on chaos_campaign"),
    layer("sim.channel_due_ns",            "ns",     Lower,  "beats_per_s on sim_steady; sim_runs_per_s on chaos_campaign"),
    // hb-net
    layer("net.wire_encode_beat_ns",       "ns",     Lower,  "beats_per_s on live_udp (tens of ns of several us per beat: no visible move)"),
    layer("net.wire_decode_beat_ns",       "ns",     Lower,  "beats_per_s on live_udp (no visible move)"),
    layer("net.wire_beat_bytes",           "bytes",  Lower,  "none"),
    layer("net.wire_encode_view_ns",       "ns",     Lower,  "beats_per_s on member_failover (little)"),
    layer("net.wire_decode_view_ns",       "ns",     Lower,  "beats_per_s on member_failover (little)"),
    layer("net.wire_reject_ns",            "ns",     Lower,  "none: wire hardening must hold it flat"),
    layer("net.wire_reject_accepted",      "count",  Lower,  "must be 0"),
    layer("net.loopback_sendrecv_ns",      "ns",     Lower,  "beats_per_s on live_loopback; live_runs_per_s on chaos_campaign"),
    layer("net.udp_sendrecv_ns",           "ns",     Lower,  "beats_per_s on live_udp only"),
    layer("net.udp_broadcast8_ns",         "ns",     Lower,  "beats_per_s on live_udp only"),
    layer("net.udp_recv_empty_ns",         "ns",     Lower,  "beats_per_s on live_udp only"),
    layer("net.udp_soft_errors",           "count",  Lower,  "must be 0; failures on live_udp"),
    layer("net.udp_decode_errors",         "count",  Lower,  "must be 0; failures on live_udp"),
    layer("net.node_poll_idle_ns",         "ns",     Lower,  "beats_per_s on live_loopback, live_udp"),
    layer("net.node_poll_beat_ns",         "ns",     Lower,  "beats_per_s on live_loopback, live_udp"),
    layer("net.cluster_step_ns_n1",        "ns",     Lower,  "beats_per_s on live_loopback"),
    layer("net.cluster_step_ns_n8",        "ns",     Lower,  "beats_per_s on live_loopback"),
    layer("net.cluster_step_ns_n64",       "ns",     Lower,  "beats_per_s on live_loopback"),
    layer("net.cluster_step_p99_ns",       "ns",     Lower,  "beats_per_s on live_loopback"),
    layer("net.live_vs_sim_ratio",         "ratio",  Lower,  "sim_steady / live_loopback beats_per_s: what the one-driver item should shrink"),
    // hb-chaos
    layer("chaos.plan_parse_us",           "us",     Lower,  "setup_s on chaos_campaign"),
    layer("chaos.plan_validate_us",        "us",     Lower,  "setup_s on chaos_campaign"),
    layer("chaos.decide_clean_ns",         "ns",     Lower,  "sim_runs_per_s, live_runs_per_s on chaos_campaign"),
    layer("chaos.decide_ge_ns",            "ns",     Lower,  "sim_runs_per_s, live_runs_per_s on chaos_campaign; nothing on sim_steady"),
    layer("chaos.drop_ratio",              "ratio",  Lower,  "none (exact for a seed)"),
    layer("chaos.run_plan_sim_us",         "us",     Lower,  "sim_runs_per_s on chaos_campaign"),
    layer("chaos.run_plan_live_us",        "us",     Lower,  "live_runs_per_s on chaos_campaign"),
    layer("chaos.run_plan_member_sim_us",  "us",     Lower,  "sim_runs_per_s on chaos_campaign"),
    layer("chaos.run_plan_member_live_us", "us",     Lower,  "live_runs_per_s on chaos_campaign"),
    layer("chaos.summary_json_us",         "us",     Lower,  "sim_runs_per_s on chaos_campaign (little)"),
    // hb-member
    layer("member.sim_ticks_per_s",        "1/s",    Higher, "beats_per_s on member_failover"),
    layer("member.live_ticks_per_s",       "1/s",    Higher, "beats_per_s on member_failover"),
    layer("member.mesh_send_ns",           "ns",     Lower,  "beats_per_s on member_failover"),
    layer("member.mesh_recv_ns",           "ns",     Lower,  "beats_per_s on member_failover"),
    layer("member.engine_self_share",      "ratio",  Lower,  "beats_per_s on member_failover"),
    layer("member.views_installed",        "count",  Lower,  "detect_ticks_max, reconv_ticks_max on member_failover"),
    layer("member.state_replies",          "count",  Lower,  "reconv_ticks_max on member_failover"),
    layer("member.failover_ticks",         "ticks",  Lower,  "detect_ticks_max on member_failover"),
    // hb-monitor
    layer("monitor.observe_ns_n1",         "ns",     Lower,  "sim_runs_per_s, live_runs_per_s on chaos_campaign"),
    layer("monitor.observe_ns_n8",         "ns",     Lower,  "sim_runs_per_s, live_runs_per_s on chaos_campaign"),
    layer("monitor.replay_events_per_s",   "1/s",    Higher, "sim_runs_per_s, live_runs_per_s on chaos_campaign"),
    layer("monitor.overhead_pct_n8",       "%",      Lower,  "prices the telemetry item's < 5 % on the sim_steady cell"),
    layer("monitor.violations",            "count",  Lower,  "must be 0"),
    // mck
    layer("mck.bfs_states_per_s",          "1/s",    Higher, "states_per_s, verdict_s on mck_scale"),
    layer("mck.dfs_states_per_s",          "1/s",    Higher, "none gated (no DFS cell in mck_scale)"),
    layer("mck.parallel_states_per_s",     "1/s",    Higher, "none gated until the search cores compose"),
    layer("mck.packed_states_per_s",       "1/s",    Higher, "states_per_s, verdict_s on mck_scale"),
    layer("mck.packed_bytes_per_state",    "bytes",  Lower,  "peak_store_bytes on mck_scale"),
    // hb-verify
    layer("verify.next_states_ns",         "ns",     Lower,  "states_per_s, verdict_s on mck_scale"),
    layer("verify.canonical_ns",           "ns",     Lower,  "states_per_s, verdict_s on mck_scale"),
    layer("verify.ample_ns",               "ns",     Lower,  "states_per_s, verdict_s on mck_scale"),
    layer("verify.codec_encode_ns",        "ns",     Lower,  "states_per_s, verdict_s on mck_scale"),
    layer("verify.codec_decode_ns",        "ns",     Lower,  "states_per_s, verdict_s on mck_scale"),
    layer("verify.sym_states_ratio",       "ratio",  Lower,  "verdict_s on mck_scale"),
    layer("verify.por_states_ratio",       "ratio",  Lower,  "verdict_s on mck_scale"),
    layer("verify.stack_disagreements",    "count",  Lower,  "must be 0"),
    layer("verify.setup_dataflow_ms",      "ms",     Lower,  "setup_s on mck_scale"),
    // hb-analyze
    layer("analyze.lint_all_ms",           "ms",     Lower,  "none gated: the CLI's cost gets a trajectory"),
    layer("analyze.dataflow_ms",           "ms",     Lower,  "none gated: the CLI's cost gets a trajectory"),
    // the traced run of the workload at hand
    layer("trace.overhead_pct",            "%",      Lower,  "none: cost of the decorators on this workload"),
    layer("trace.accounted_share",         "ratio",  Higher, "none: layer ns/op x op count over untraced wall time"),
];

/// The definition of per-layer metric `name`.
pub fn per_layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(well_formed(n), "bad name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate name");
    }

    #[test]
    fn reasons_fit_one_line_and_bounds_fit_the_contract() {
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
            assert!(m.workloads.iter().all(|w| is_workload(w)), "{}", m.name);
        }
        for u in UNIVERSAL {
            assert!(end_to_end(u).unwrap().workloads.is_empty());
        }
    }

    #[test]
    fn live_udp_gets_its_slack() {
        let detect = end_to_end("detect_ticks_max").unwrap();
        assert_eq!(detect.allowance("sim_steady", 14.0), 0.0);
        assert_eq!(detect.allowance("live_udp", 14.0), 1.0);
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!(setup.allowance("sim_steady", 0.001), 0.002);
        assert_eq!(setup.allowance("mck_scale", 1.0), 0.25);
    }
}
