//! The declarative fault plan: a seed-deterministic schedule of faults
//! over time and topology, serializable to a small JSON spec so chaos
//! scenarios are shareable artifacts.
//!
//! A [`FaultPlan`] bundles the protocol under test ([`ProtoSpec`]) with a
//! list of [`FaultSpec`]s. The same plan runs unchanged against the
//! discrete-event simulator and the live loopback/virtual-time runtime
//! (see [`crate::run_plan`]); all fault randomness derives from the
//! plan's `seed`, so replaying a plan is byte-identical.

use std::fmt;

use hb_core::fault::{LossModel, Time};
use hb_core::{FixLevel, Params, Pid, Variant, MAX_VIEW_MEMBERS};

use crate::json::{self, JsonError, Object, ToJson, Value};

/// A half-open activity window `[from, to)`; `to = None` means "until
/// the end of the run".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// First tick the fault is active.
    pub from: Time,
    /// First tick the fault is inactive again (`None` = forever).
    pub to: Option<Time>,
}

impl Window {
    /// A window covering the whole run.
    pub fn always() -> Self {
        Window { from: 0, to: None }
    }

    /// The window `[from, to)`.
    pub fn between(from: Time, to: Time) -> Self {
        Window { from, to: Some(to) }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: Time) -> bool {
        t >= self.from && self.to.is_none_or(|to| t < to)
    }

    fn write_fields(&self, o: &mut Object<'_>) {
        o.field("from", self.from).field("to", self.to);
    }
}

/// Which directed links a fault applies to. `None` matches any endpoint,
/// so `Link::any()` is the whole network and `{src: Some(0), dst: None}`
/// is everything the coordinator sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Link {
    /// Matching sender (`None` = any).
    pub src: Option<Pid>,
    /// Matching receiver (`None` = any).
    pub dst: Option<Pid>,
}

impl Link {
    /// Every directed link.
    pub fn any() -> Self {
        Link {
            src: None,
            dst: None,
        }
    }

    /// Only messages from `src` to `dst`.
    pub fn between(src: Pid, dst: Pid) -> Self {
        Link {
            src: Some(src),
            dst: Some(dst),
        }
    }

    /// Whether a message `src -> dst` matches.
    pub fn matches(&self, src: Pid, dst: Pid) -> bool {
        self.src.is_none_or(|s| s == src) && self.dst.is_none_or(|d| d == dst)
    }

    fn write_fields(&self, o: &mut Object<'_>) {
        o.field("src", self.src).field("dst", self.dst);
    }
}

/// One fault in a plan.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSpec {
    /// Probabilistic loss on matching links (Bernoulli or Gilbert–Elliott
    /// burst). Each `Loss` fault keeps its own burst-chain state.
    Loss {
        /// When the fault is active.
        window: Window,
        /// Which links it covers.
        link: Link,
        /// The loss law.
        model: LossModel,
    },
    /// A full partition into groups: messages between different groups
    /// are dropped, messages within a group pass. Pids not listed in any
    /// group are unaffected.
    Partition {
        /// When the partition holds.
        window: Window,
        /// The disjoint groups.
        groups: Vec<Vec<Pid>>,
    },
    /// A one-way partition: messages from any pid in `src` to any pid in
    /// `dst` are dropped (the reverse direction is untouched) — the
    /// asymmetric link failure of AM09's adversarial schedules.
    OneWay {
        /// When the cut holds.
        window: Window,
        /// Senders whose messages are cut.
        src: Vec<Pid>,
        /// Receivers the cut applies to.
        dst: Vec<Pid>,
    },
    /// Independent duplication: each matching message is delivered twice
    /// with probability `p`.
    Duplicate {
        /// When duplication is active.
        window: Window,
        /// Which links it covers.
        link: Link,
        /// Duplication probability.
        p: f64,
    },
    /// Bounded reordering: with probability `p` a matching message is
    /// held back by `1..=max_extra` extra ticks, letting later messages
    /// overtake it.
    Reorder {
        /// When reordering is active.
        window: Window,
        /// Which links it covers.
        link: Link,
        /// Probability of holding a message back.
        p: f64,
        /// Maximum extra delay in ticks.
        max_extra: u32,
    },
    /// A delay spike: every message sent in the window is slowed by
    /// `extra` ticks on top of its normal in-budget delay — deliberately
    /// violating the protocols' round-trip assumption `tmin`.
    DelaySpike {
        /// When the spike holds.
        window: Window,
        /// Extra ticks added to every delivery.
        extra: u32,
    },
    /// Per-node clock drift for the live runtime: node `pid`'s local
    /// clock reads `offset + t·num/den` at true tick `t`. The simulator
    /// has one global clock and ignores drift (recorded in the run notes).
    Drift {
        /// The drifting node.
        pid: Pid,
        /// Fixed clock offset in ticks.
        offset: Time,
        /// Rate numerator.
        num: u64,
        /// Rate denominator.
        den: u64,
    },
    /// Crash `pid` at tick `at` (voluntary inactivation; the node keeps
    /// consuming messages silently).
    Crash {
        /// The crashing node.
        pid: Pid,
        /// Crash tick.
        at: Time,
    },
    /// Delay participant `pid`'s start until tick `at` (join variants).
    Start {
        /// The late-starting participant.
        pid: Pid,
        /// Start tick.
        at: Time,
    },
    /// Make participant `pid` leave at the first beat at or after `at`
    /// (dynamic variant).
    Leave {
        /// The leaving participant.
        pid: Pid,
        /// Earliest leave tick.
        at: Time,
    },
    /// Revive participant `pid` at tick `at` (§7 rejoin): a crashed node
    /// restarts with a fresh epoch. Only valid after an earlier `crash`
    /// of the same pid.
    Revive {
        /// The reviving participant.
        pid: Pid,
        /// Revive tick.
        at: Time,
    },
}

/// The protocol configuration a plan runs against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtoSpec {
    /// Protocol variant.
    pub variant: Variant,
    /// Timing parameters.
    pub params: Params,
    /// Fix level.
    pub fix: FixLevel,
    /// Number of participants.
    pub n: usize,
    /// Run length in ticks (the run may end earlier if everything
    /// inactivates).
    pub duration: Time,
    /// Run the plan on the `hb-member` group-membership layer instead of
    /// the plain detector. Only membership plans may crash *and revive*
    /// the coordinator: the survivors fail over to a successor view and
    /// the revived ex-coordinator is demoted into it.
    pub membership: bool,
}

/// A complete, shareable chaos scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// A human-readable scenario name.
    pub name: String,
    /// The seed all fault randomness derives from.
    pub seed: u64,
    /// The protocol under test.
    pub proto: ProtoSpec,
    /// The fault schedule.
    pub faults: Vec<FaultSpec>,
}

/// A malformed plan (parse or validation failure).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanError(pub String);

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

impl From<JsonError> for PlanError {
    fn from(e: JsonError) -> Self {
        PlanError(e.to_string())
    }
}

fn window_from(v: &Value) -> Result<Window, PlanError> {
    let from = v
        .opt_field("from")?
        .map(Value::as_u64)
        .transpose()?
        .unwrap_or(0);
    let to = v.opt_field("to")?.map(Value::as_u64).transpose()?;
    if let Some(to) = to {
        if to < from {
            return Err(PlanError(format!("window [{from}, {to}) is inverted")));
        }
    }
    Ok(Window { from, to })
}

fn link_from(v: &Value) -> Result<Link, PlanError> {
    let pid = |name| -> Result<Option<Pid>, PlanError> {
        Ok(v.opt_field(name)?.map(Value::as_uint).transpose()?)
    };
    Ok(Link {
        src: pid("src")?,
        dst: pid("dst")?,
    })
}

fn pids_from(v: &Value) -> Result<Vec<Pid>, PlanError> {
    v.as_arr()?.iter().map(|p| Ok(p.as_uint()?)).collect()
}

fn prob_from(v: &Value, name: &str) -> Result<f64, PlanError> {
    let p = v.field(name)?.as_f64()?;
    if !(0.0..=1.0).contains(&p) {
        return Err(PlanError(format!("\"{name}\" = {p} outside [0, 1]")));
    }
    Ok(p)
}

fn loss_model_from(v: &Value) -> Result<LossModel, PlanError> {
    match v.field("law")?.as_str()? {
        "bernoulli" => Ok(LossModel::Bernoulli(prob_from(v, "p")?)),
        "gilbert-elliott" => Ok(LossModel::GilbertElliott {
            to_bad: prob_from(v, "to_bad")?,
            to_good: prob_from(v, "to_good")?,
            good_loss: prob_from(v, "good_loss")?,
            bad_loss: prob_from(v, "bad_loss")?,
        }),
        other => Err(PlanError(format!("unknown loss law \"{other}\""))),
    }
}

impl FaultSpec {
    /// The plan file's `kind` of this fault.
    fn kind(&self) -> &'static str {
        match self {
            FaultSpec::Loss { .. } => "loss",
            FaultSpec::Partition { .. } => "partition",
            FaultSpec::OneWay { .. } => "one-way",
            FaultSpec::Duplicate { .. } => "duplicate",
            FaultSpec::Reorder { .. } => "reorder",
            FaultSpec::DelaySpike { .. } => "delay-spike",
            FaultSpec::Drift { .. } => "drift",
            FaultSpec::Crash { .. } => "crash",
            FaultSpec::Start { .. } => "start",
            FaultSpec::Leave { .. } => "leave",
            FaultSpec::Revive { .. } => "revive",
        }
    }

    /// Whether this fault acts on messages (the
    /// [`FaultPipeline`](crate::FaultPipeline)'s share of a plan) rather
    /// than on a node's lifecycle or clock.
    pub(crate) fn on_messages(&self) -> bool {
        use FaultSpec::{Crash, Drift, Leave, Revive, Start};
        !matches!(
            self,
            Drift { .. } | Crash { .. } | Start { .. } | Leave { .. } | Revive { .. }
        )
    }

    fn from_value(v: &Value) -> Result<FaultSpec, PlanError> {
        let pid_at = || -> Result<(Pid, Time), PlanError> {
            Ok((v.field("pid")?.as_uint()?, v.field("at")?.as_u64()?))
        };
        match v.field("kind")?.as_str()? {
            "loss" => Ok(FaultSpec::Loss {
                window: window_from(v)?,
                link: link_from(v)?,
                model: loss_model_from(v.field("model")?)?,
            }),
            "partition" => Ok(FaultSpec::Partition {
                window: window_from(v)?,
                groups: v
                    .field("groups")?
                    .as_arr()?
                    .iter()
                    .map(pids_from)
                    .collect::<Result<_, _>>()?,
            }),
            "one-way" => Ok(FaultSpec::OneWay {
                window: window_from(v)?,
                src: pids_from(v.field("src")?)?,
                dst: pids_from(v.field("dst")?)?,
            }),
            "duplicate" => Ok(FaultSpec::Duplicate {
                window: window_from(v)?,
                link: link_from(v)?,
                p: prob_from(v, "p")?,
            }),
            "reorder" => Ok(FaultSpec::Reorder {
                window: window_from(v)?,
                link: link_from(v)?,
                p: prob_from(v, "p")?,
                max_extra: v.field("max_extra")?.as_uint()?,
            }),
            "delay-spike" => Ok(FaultSpec::DelaySpike {
                window: window_from(v)?,
                extra: v.field("extra")?.as_uint()?,
            }),
            "drift" => Ok(FaultSpec::Drift {
                pid: v.field("pid")?.as_uint()?,
                offset: v
                    .opt_field("offset")?
                    .map(Value::as_u64)
                    .transpose()?
                    .unwrap_or(0),
                num: v.field("num")?.as_u64()?,
                den: v.field("den")?.as_u64()?,
            }),
            "crash" => pid_at().map(|(pid, at)| FaultSpec::Crash { pid, at }),
            "start" => pid_at().map(|(pid, at)| FaultSpec::Start { pid, at }),
            "leave" => pid_at().map(|(pid, at)| FaultSpec::Leave { pid, at }),
            "revive" => pid_at().map(|(pid, at)| FaultSpec::Revive { pid, at }),
            other => Err(PlanError(format!("unknown fault kind \"{other}\""))),
        }
    }
}

impl ToJson for FaultSpec {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("kind", self.kind());
            match self {
                FaultSpec::Loss { window, link, .. }
                | FaultSpec::Duplicate { window, link, .. }
                | FaultSpec::Reorder { window, link, .. } => {
                    window.write_fields(o);
                    link.write_fields(o);
                }
                FaultSpec::Partition { window, .. }
                | FaultSpec::OneWay { window, .. }
                | FaultSpec::DelaySpike { window, .. } => window.write_fields(o),
                _ => {}
            }
            match self {
                FaultSpec::Loss { model, .. } => o.object("model", |o| match model {
                    LossModel::Bernoulli(p) => {
                        o.field("law", "bernoulli").field("p", p);
                    }
                    LossModel::GilbertElliott {
                        to_bad,
                        to_good,
                        good_loss,
                        bad_loss,
                    } => {
                        o.field("law", "gilbert-elliott")
                            .field("to_bad", to_bad)
                            .field("to_good", to_good)
                            .field("good_loss", good_loss)
                            .field("bad_loss", bad_loss);
                    }
                }),
                FaultSpec::Partition { groups, .. } => o.field("groups", groups),
                FaultSpec::OneWay { src, dst, .. } => o.field("src", src).field("dst", dst),
                FaultSpec::Duplicate { p, .. } => o.field("p", p),
                FaultSpec::Reorder { p, max_extra, .. } => {
                    o.field("p", p).field("max_extra", max_extra)
                }
                FaultSpec::DelaySpike { extra, .. } => o.field("extra", extra),
                FaultSpec::Drift {
                    pid,
                    offset,
                    num,
                    den,
                } => o
                    .field("pid", pid)
                    .field("offset", offset)
                    .field("num", num)
                    .field("den", den),
                FaultSpec::Crash { pid, at }
                | FaultSpec::Start { pid, at }
                | FaultSpec::Leave { pid, at }
                | FaultSpec::Revive { pid, at } => o.field("pid", pid).field("at", at),
            };
        });
    }
}

impl ToJson for ProtoSpec {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("variant", self.variant.name())
                .field("tmin", self.params.tmin())
                .field("tmax", self.params.tmax())
                .field("fix", self.fix.name())
                .field("n", self.n)
                .field("duration", self.duration)
                .field("membership", self.membership);
        });
    }
}

impl ProtoSpec {
    fn from_value(v: &Value) -> Result<ProtoSpec, PlanError> {
        let tmin = v.field("tmin")?.as_uint()?;
        let tmax = v.field("tmax")?.as_uint()?;
        // Absent in pre-membership plans: default to the plain detector.
        let membership = match v.opt_field("membership")? {
            Some(b) => b.as_bool()?,
            None => false,
        };
        Ok(ProtoSpec {
            variant: Variant::from_name(v.field("variant")?.as_str()?).map_err(PlanError)?,
            params: Params::new(tmin, tmax).map_err(|e| PlanError(e.to_string()))?,
            fix: FixLevel::from_name(v.field("fix")?.as_str()?).map_err(PlanError)?,
            n: v.field("n")?.as_uint()?,
            duration: v.field("duration")?.as_u64()?,
            membership,
        })
    }
}

impl FaultPlan {
    /// A plan with no faults (builder entry point).
    pub fn new(name: impl Into<String>, seed: u64, proto: ProtoSpec) -> Self {
        FaultPlan {
            name: name.into(),
            seed,
            proto,
            faults: Vec::new(),
        }
    }

    /// Append a fault (builder style).
    #[must_use]
    pub fn with(mut self, fault: FaultSpec) -> Self {
        self.faults.push(fault);
        self
    }

    /// The crash schedule embedded in the plan.
    pub fn crashes(&self) -> Vec<(Pid, Time)> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                FaultSpec::Crash { pid, at } => Some((*pid, *at)),
                _ => None,
            })
            .collect()
    }

    /// The first scheduled crash time, if any.
    pub fn first_crash(&self) -> Option<Time> {
        self.crashes().iter().map(|&(_, t)| t).min()
    }

    /// Validate the group size (at least one participant, exactly one for
    /// the two-process variants; a membership group fits a view), topology
    /// references and per-pid lifecycle ordering: every pid a fault names
    /// must exist (`0..=n`), start/leave only name participants, leave
    /// needs the dynamic variant, a pid crashes at most once, a revive
    /// needs a strictly earlier crash of the same pid, and a late start
    /// must precede that pid's crash. Reviving the coordinator (pid 0)
    /// additionally requires a membership plan — without the failover
    /// layer a revived coordinator has no story — and follows the same
    /// lifecycle ordering as participant pids. A membership plan takes no
    /// start, leave or drift: its engine runs crash and revive only. A
    /// drift runs at a positive rate, and its clock at `proto.duration`
    /// leaves room for a `u32` timer span.
    pub fn validate(&self) -> Result<(), PlanError> {
        let n = self.proto.n;
        if n == 0 {
            return Err(PlanError("n = 0: a plan needs a participant".into()));
        }
        if self.proto.membership && n >= MAX_VIEW_MEMBERS {
            return Err(PlanError(format!(
                "a membership group of {n} + 1 exceeds the view's {MAX_VIEW_MEMBERS} members"
            )));
        }
        let check = |pid: Pid, what: &str| {
            if pid > n {
                Err(PlanError(format!("{what} names pid {pid}, but n = {n}")))
            } else {
                Ok(())
            }
        };
        let check_part = |pid: Pid, what: &str| {
            if pid == 0 || pid > n {
                Err(PlanError(format!(
                    "{what} must name a participant in 1..={n}, got {pid}"
                )))
            } else {
                Ok(())
            }
        };
        for f in &self.faults {
            use FaultSpec::{Drift, Leave, Start};
            if self.proto.membership && matches!(f, Drift { .. } | Start { .. } | Leave { .. }) {
                let kind = f.kind();
                return Err(PlanError(format!("a membership plan takes no {kind}")));
            }
            match f {
                FaultSpec::Loss { link, .. }
                | FaultSpec::Duplicate { link, .. }
                | FaultSpec::Reorder { link, .. } => {
                    for pid in [link.src, link.dst].into_iter().flatten() {
                        check(pid, "link")?;
                    }
                }
                FaultSpec::Partition { groups, .. } => {
                    for pid in groups.iter().flatten() {
                        check(*pid, "partition group")?;
                    }
                }
                FaultSpec::OneWay { src, dst, .. } => {
                    for pid in src.iter().chain(dst) {
                        check(*pid, "one-way cut")?;
                    }
                }
                FaultSpec::DelaySpike { .. } => {}
                FaultSpec::Drift {
                    pid,
                    offset,
                    num,
                    den,
                } => {
                    check(*pid, "drift")?;
                    if *num == 0 || *den == 0 {
                        return Err(PlanError("drift rate must be positive".into()));
                    }
                    // The node's clock at the horizon, plus the longest
                    // timer it can arm from there, must fit a tick.
                    let duration = self.proto.duration;
                    let end = duration
                        .checked_mul(*num)
                        .and_then(|t| (t / den).checked_add(*offset))
                        .and_then(|t| t.checked_add(u32::MAX.into()));
                    if end.is_none() {
                        return Err(PlanError(format!(
                            "drift of pid {pid} overflows its clock by the horizon {duration}"
                        )));
                    }
                }
                FaultSpec::Crash { pid, .. } => check(*pid, "crash")?,
                FaultSpec::Start { pid, .. } => {
                    check_part(*pid, "start")?;
                    if !self.proto.variant.has_join_phase() {
                        return Err(PlanError(format!(
                            "start requires a join-capable variant, got {}",
                            self.proto.variant
                        )));
                    }
                }
                FaultSpec::Leave { pid, .. } => {
                    check_part(*pid, "leave")?;
                    if !self.proto.variant.supports_leave() {
                        return Err(PlanError(format!(
                            "leave requires the dynamic variant, got {}",
                            self.proto.variant
                        )));
                    }
                }
                FaultSpec::Revive { pid, .. } => {
                    if self.proto.membership {
                        check(*pid, "revive")?;
                    } else {
                        check_part(*pid, "revive")?;
                    }
                }
            }
        }

        // Per-pid lifecycle ordering: each pid crashes at most once, a
        // revive needs a strictly earlier crash of the same pid, and a
        // late start must precede that pid's crash.
        let mut crashes: Vec<(Pid, Time)> = Vec::new();
        for f in &self.faults {
            if let FaultSpec::Crash { pid, at } = f {
                if let Some(&(_, prev)) = crashes.iter().find(|(p, _)| p == pid) {
                    return Err(PlanError(format!(
                        "pid {pid} crashes twice (at {prev} and {at})"
                    )));
                }
                crashes.push((*pid, *at));
            }
        }
        let crash_of = |pid: Pid| crashes.iter().find(|&&(p, _)| p == pid).map(|&(_, t)| t);
        let mut revived: Vec<Pid> = Vec::new();
        for f in &self.faults {
            match *f {
                FaultSpec::Revive { pid, at } => {
                    let Some(c) = crash_of(pid) else {
                        return Err(PlanError(format!(
                            "revive of pid {pid} at {at} has no matching crash"
                        )));
                    };
                    if at <= c {
                        return Err(PlanError(format!(
                            "revive of pid {pid} at {at} must follow its crash at {c}"
                        )));
                    }
                    if revived.contains(&pid) {
                        return Err(PlanError(format!("pid {pid} revives twice")));
                    }
                    revived.push(pid);
                }
                FaultSpec::Start { pid, at } => {
                    if let Some(c) = crash_of(pid) {
                        if at >= c {
                            return Err(PlanError(format!(
                                "start of pid {pid} at {at} must precede its crash at {c}"
                            )));
                        }
                    }
                }
                _ => {}
            }
        }
        // Last, so that a fault the variant cannot express is named first.
        if self.proto.variant.is_two_process() && n != 1 {
            return Err(PlanError(format!(
                "{} is a two-process protocol, got n = {n}",
                self.proto.variant
            )));
        }
        Ok(())
    }

    /// Serialize to the shareable JSON spec (single line).
    pub fn to_json(&self) -> String {
        json::render(self)
    }

    /// Parse and validate a JSON plan.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] on malformed JSON, unknown names, out-of-range
    /// probabilities, or topology references outside `0..=n`.
    pub fn from_json(text: &str) -> Result<FaultPlan, PlanError> {
        let v = Value::parse(text)?;
        if let Some(rec) = v.opt_field("record")? {
            if rec.as_str()? != "fault_plan" {
                return Err(PlanError(format!(
                    "not a fault_plan record: {:?}",
                    rec.as_str()
                )));
            }
        }
        let plan = FaultPlan {
            name: v.field("name")?.as_str()?.to_string(),
            seed: v.field("seed")?.as_u64()?,
            proto: ProtoSpec::from_value(v.field("proto")?)?,
            faults: v
                .field("faults")?
                .as_arr()?
                .iter()
                .map(FaultSpec::from_value)
                .collect::<Result<_, _>>()?,
        };
        plan.validate()?;
        Ok(plan)
    }
}

impl ToJson for FaultPlan {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("record", "fault_plan")
                .field("name", &self.name)
                .field("seed", self.seed)
                .field("proto", self.proto)
                .field("faults", &self.faults);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proto() -> ProtoSpec {
        ProtoSpec {
            variant: Variant::Dynamic,
            params: Params::new(2, 8).unwrap(),
            fix: FixLevel::Full,
            n: 3,
            duration: 5_000,
            membership: false,
        }
    }

    fn rich_plan() -> FaultPlan {
        FaultPlan::new("kitchen-sink", 42, proto())
            .with(FaultSpec::Loss {
                window: Window::always(),
                link: Link::any(),
                model: LossModel::GilbertElliott {
                    to_bad: 0.05,
                    to_good: 0.25,
                    good_loss: 0.0,
                    bad_loss: 1.0,
                },
            })
            .with(FaultSpec::Loss {
                window: Window::between(100, 200),
                link: Link::between(1, 0),
                model: LossModel::Bernoulli(0.5),
            })
            .with(FaultSpec::Partition {
                window: Window::between(1_000, 1_080),
                groups: vec![vec![0, 1], vec![2, 3]],
            })
            .with(FaultSpec::OneWay {
                window: Window::between(2_000, 2_040),
                src: vec![0],
                dst: vec![2],
            })
            .with(FaultSpec::Duplicate {
                window: Window::always(),
                link: Link::any(),
                p: 0.05,
            })
            .with(FaultSpec::Reorder {
                window: Window::always(),
                link: Link::any(),
                p: 0.2,
                max_extra: 3,
            })
            .with(FaultSpec::DelaySpike {
                window: Window::between(3_000, 3_016),
                extra: 5,
            })
            .with(FaultSpec::Drift {
                pid: 1,
                offset: 1,
                num: 103,
                den: 100,
            })
            .with(FaultSpec::Start { pid: 2, at: 40 })
            .with(FaultSpec::Leave { pid: 3, at: 900 })
            .with(FaultSpec::Crash { pid: 1, at: 4_000 })
            .with(FaultSpec::Revive { pid: 1, at: 4_200 })
    }

    #[test]
    fn every_fault_kind_round_trips_through_json() {
        let plan = rich_plan();
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(back, plan);
        // Serialization is canonical: re-emitting is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn validation_catches_bad_topology() {
        let bad = FaultPlan::new("p", 1, proto()).with(FaultSpec::Crash { pid: 9, at: 5 });
        assert!(bad.validate().is_err());
        let mut p = proto();
        p.variant = Variant::Binary;
        let bad = FaultPlan::new("p", 1, p).with(FaultSpec::Leave { pid: 1, at: 5 });
        assert!(bad.validate().unwrap_err().to_string().contains("dynamic"));
        let bad = FaultPlan::new("p", 1, p).with(FaultSpec::Start { pid: 1, at: 5 });
        assert!(bad.validate().is_err());
        let bad = FaultPlan::new("p", 1, proto()).with(FaultSpec::Partition {
            window: Window::always(),
            groups: vec![vec![0], vec![7]],
        });
        assert!(bad.validate().is_err());
    }

    #[test]
    fn lifecycle_ordering_is_validated_per_pid() {
        // Two crashes of the same pid.
        let bad = FaultPlan::new("p", 1, proto())
            .with(FaultSpec::Crash { pid: 1, at: 10 })
            .with(FaultSpec::Crash { pid: 1, at: 20 });
        let msg = bad.validate().unwrap_err().to_string();
        assert!(msg.contains("crashes twice (at 10 and 20)"), "{msg}");

        // Revive with no matching crash.
        let bad = FaultPlan::new("p", 1, proto()).with(FaultSpec::Revive { pid: 2, at: 50 });
        let msg = bad.validate().unwrap_err().to_string();
        assert!(msg.contains("no matching crash"), "{msg}");

        // Revive at or before the crash tick (fault order in the list is
        // irrelevant; only the ticks matter).
        let bad = FaultPlan::new("p", 1, proto())
            .with(FaultSpec::Revive { pid: 1, at: 10 })
            .with(FaultSpec::Crash { pid: 1, at: 10 });
        let msg = bad.validate().unwrap_err().to_string();
        assert!(msg.contains("must follow its crash at 10"), "{msg}");

        // A second revive of the same pid.
        let bad = FaultPlan::new("p", 1, proto())
            .with(FaultSpec::Crash { pid: 1, at: 10 })
            .with(FaultSpec::Revive { pid: 1, at: 20 })
            .with(FaultSpec::Revive { pid: 1, at: 30 });
        let msg = bad.validate().unwrap_err().to_string();
        assert!(msg.contains("revives twice"), "{msg}");

        // Late start scheduled after the pid already crashed.
        let bad = FaultPlan::new("p", 1, proto())
            .with(FaultSpec::Crash { pid: 2, at: 10 })
            .with(FaultSpec::Start { pid: 2, at: 10 });
        let msg = bad.validate().unwrap_err().to_string();
        assert!(msg.contains("must precede its crash at 10"), "{msg}");

        // Revive of the coordinator is rejected outright on a plain
        // (non-membership) plan: without failover it has no story.
        let bad = FaultPlan::new("p", 1, proto())
            .with(FaultSpec::Crash { pid: 0, at: 10 })
            .with(FaultSpec::Revive { pid: 0, at: 20 });
        let msg = bad.validate().unwrap_err().to_string();
        assert!(msg.contains("revive must name a participant"), "{msg}");

        // The legal shape round-trips at the JSON level.
        let good = FaultPlan::new("p", 1, proto())
            .with(FaultSpec::Crash { pid: 1, at: 10 })
            .with(FaultSpec::Revive { pid: 1, at: 20 });
        assert_eq!(FaultPlan::from_json(&good.to_json()).unwrap(), good);
    }

    #[test]
    fn membership_plans_extend_the_lifecycle_rules_to_the_coordinator() {
        let member = ProtoSpec {
            membership: true,
            ..proto()
        };

        // With the membership layer the coordinator is revivable — the
        // survivors fail over and the rejoiner is demoted — so the full
        // crash/revive lifecycle validates and round-trips through JSON.
        let good = FaultPlan::new("p", 1, member)
            .with(FaultSpec::Crash { pid: 0, at: 10 })
            .with(FaultSpec::Revive { pid: 0, at: 20 });
        good.validate().expect("coordinator failover plan");
        let back = FaultPlan::from_json(&good.to_json()).unwrap();
        assert_eq!(back, good);
        assert!(back.proto.membership);

        // The ordering rules apply to pid 0 exactly as to participants:
        // a revive needs a strictly earlier crash...
        let bad = FaultPlan::new("p", 1, member).with(FaultSpec::Revive { pid: 0, at: 20 });
        let msg = bad.validate().unwrap_err().to_string();
        assert!(msg.contains("no matching crash"), "{msg}");

        // ...revive-at-or-before-crash is rejected...
        let bad = FaultPlan::new("p", 1, member)
            .with(FaultSpec::Crash { pid: 0, at: 10 })
            .with(FaultSpec::Revive { pid: 0, at: 10 });
        let msg = bad.validate().unwrap_err().to_string();
        assert!(msg.contains("must follow its crash at 10"), "{msg}");

        // ...and the coordinator revives at most once.
        let bad = FaultPlan::new("p", 1, member)
            .with(FaultSpec::Crash { pid: 0, at: 10 })
            .with(FaultSpec::Revive { pid: 0, at: 20 })
            .with(FaultSpec::Revive { pid: 0, at: 30 });
        let msg = bad.validate().unwrap_err().to_string();
        assert!(msg.contains("revives twice"), "{msg}");

        // The engine runs crash and revive only: a start, a leave or a
        // drift, valid on a plain plan, is refused by name, not dropped.
        let drift = FaultSpec::Drift {
            pid: 1,
            offset: 0,
            num: 3,
            den: 1,
        };
        let start = FaultSpec::Start { pid: 2, at: 150 };
        let leave = FaultSpec::Leave { pid: 3, at: 100 };
        for (f, kind) in [(drift, "drift"), (start, "start"), (leave, "leave")] {
            FaultPlan::new("p", 1, proto())
                .with(f.clone())
                .validate()
                .unwrap();
            let bad = FaultPlan::new("p", 1, member).with(f);
            let msg = bad.validate().unwrap_err().to_string();
            assert!(
                msg.contains(&format!("membership plan takes no {kind}")),
                "{msg}"
            );
        }

        // The same rejections surface at the JSON level, and a plan
        // merely omitting "membership" stays a plain-detector plan.
        let base = r#"{"name":"x","seed":1,"proto":{"variant":"binary","tmin":1,"tmax":2,"fix":"full-fix","n":2,"duration":100,"membership":true},"faults":FAULTS}"#;
        let json = base.replace(
            "FAULTS",
            r#"[{"kind":"revive","pid":0,"at":9},{"kind":"crash","pid":0,"at":9}]"#,
        );
        let msg = FaultPlan::from_json(&json).unwrap_err().to_string();
        assert!(msg.contains("must follow its crash"), "{msg}");
        for (fault, kind) in [
            (r#"{"kind":"drift","pid":1,"num":3,"den":1}"#, "drift"),
            (r#"{"kind":"start","pid":2,"at":150}"#, "start"),
            (r#"{"kind":"leave","pid":2,"at":100}"#, "leave"),
        ] {
            let json = base.replace("FAULTS", &format!("[{fault}]"));
            let msg = FaultPlan::from_json(&json).unwrap_err().to_string();
            assert!(
                msg.contains(&format!("membership plan takes no {kind}")),
                "{msg}"
            );
        }
        let json = base.replace(",\"membership\":true", "").replace(
            "FAULTS",
            r#"[{"kind":"crash","pid":0,"at":5},{"kind":"revive","pid":0,"at":9}]"#,
        );
        let msg = FaultPlan::from_json(&json).unwrap_err().to_string();
        assert!(msg.contains("revive must name a participant"), "{msg}");
    }

    #[test]
    fn drift_that_stops_or_overflows_the_clock_is_refused() {
        let proto = ProtoSpec {
            duration: 100,
            ..proto()
        };
        let drift = |offset, num, den| {
            FaultPlan::new("d", 1, proto).with(FaultSpec::Drift {
                pid: 1,
                offset,
                num,
                den,
            })
        };
        for (num, den) in [(0, 1), (1, 0)] {
            let msg = drift(0, num, den).validate().unwrap_err().to_string();
            assert!(msg.contains("rate must be positive"), "{msg}");
        }
        // The last offset whose clock at the horizon (100 · 3/2 = 150)
        // leaves a u32 span of room, and one past it.
        let room = u64::MAX - u64::from(u32::MAX) - 150;
        assert!(drift(room, 3, 2).validate().is_ok());
        for bad in [drift(room + 1, 3, 2), drift(0, u64::MAX / 99, 1)] {
            let msg = bad.validate().unwrap_err().to_string();
            assert!(msg.contains("overflows its clock"), "{msg}");
        }
        let json = r#"{"name":"x","seed":1,"proto":{"variant":"binary","tmin":2,"tmax":8,"fix":"full-fix","n":1,"duration":100},"faults":[{"kind":"drift","pid":1,"offset":18446744073709551615,"num":1,"den":1}]}"#;
        let msg = FaultPlan::from_json(json).unwrap_err().to_string();
        assert!(msg.contains("overflows its clock"), "{msg}");
        let json = json.replace("\"den\":1", "\"den\":0");
        let msg = FaultPlan::from_json(&json).unwrap_err().to_string();
        assert!(msg.contains("rate must be positive"), "{msg}");
    }

    #[test]
    fn json_parse_reports_lifecycle_errors() {
        let base = r#"{"name":"x","seed":1,"proto":{"variant":"binary","tmin":1,"tmax":2,"fix":"full-fix","n":2,"duration":100},"faults":FAULTS}"#;
        for (faults, needle) in [
            (
                r#"[{"kind":"crash","pid":1,"at":5},{"kind":"crash","pid":1,"at":9}]"#,
                "crashes twice",
            ),
            (r#"[{"kind":"revive","pid":1,"at":9}]"#, "no matching crash"),
            (r#"[{"kind":"crash","pid":4294967297,"at":5}]"#, "names pid"),
            (
                r#"[{"kind":"crash","pid":1,"at":9},{"kind":"revive","pid":1,"at":4}]"#,
                "must follow its crash",
            ),
        ] {
            let json = base.replace("FAULTS", faults);
            let msg = FaultPlan::from_json(&json).unwrap_err().to_string();
            assert!(msg.contains(needle), "{json}: {msg}");
        }
    }

    #[test]
    fn parse_rejects_malformed_plans() {
        for bad in [
            "{}",
            r#"{"record":"run_summary","name":"x","seed":1}"#,
            r#"{"name":"x","seed":1,"proto":{"variant":"nope","tmin":1,"tmax":2,"fix":"full-fix","n":1,"duration":10},"faults":[]}"#,
            r#"{"name":"x","seed":1,"proto":{"variant":"binary","tmin":0,"tmax":2,"fix":"full-fix","n":1,"duration":10},"faults":[]}"#,
            r#"{"name":"x","seed":1,"proto":{"variant":"binary","tmin":1,"tmax":2,"fix":"full-fix","n":1,"duration":10},"faults":[{"kind":"loss","model":{"law":"bernoulli","p":1.5}}]}"#,
            r#"{"name":"x","seed":1,"proto":{"variant":"binary","tmin":1,"tmax":2,"fix":"full-fix","n":1,"duration":10},"faults":[{"kind":"wat"}]}"#,
            // Out of range for the field, not truncated into it.
            r#"{"name":"x","seed":1,"proto":{"variant":"binary","tmin":4294967298,"tmax":4294967304,"fix":"full-fix","n":1,"duration":10},"faults":[]}"#,
            r#"{"name":"x","seed":1,"proto":{"variant":"static","tmin":1,"tmax":2,"fix":"full-fix","n":1,"duration":10},"faults":[{"kind":"delay-spike","extra":4294967296}]}"#,
            r#"{"name":"x","seed":1e300,"proto":{"variant":"static","tmin":1,"tmax":2,"fix":"full-fix","n":1,"duration":10},"faults":[]}"#,
            r#"{"name":"x","seed":1,"proto":{"variant":"static","tmin":1,"tmax":2,"fix":"full-fix","n":1,"duration":18446744073709551616},"faults":[]}"#,
            // Group sizes the runtimes would panic on.
            r#"{"name":"x","seed":1,"proto":{"variant":"static","tmin":1,"tmax":2,"fix":"full-fix","n":0,"duration":10},"faults":[]}"#,
            r#"{"name":"x","seed":1,"proto":{"variant":"binary","tmin":1,"tmax":2,"fix":"full-fix","n":2,"duration":10},"faults":[]}"#,
            r#"{"name":"x","seed":1,"proto":{"variant":"dynamic","tmin":1,"tmax":2,"fix":"full-fix","n":64,"duration":10,"membership":true},"faults":[]}"#,
        ] {
            assert!(FaultPlan::from_json(bad).is_err(), "{bad} must fail");
        }
        // A seed is 64 bits and arrives as written.
        let max = r#"{"name":"x","seed":18446744073709551615,"proto":{"variant":"dynamic","tmin":1,"tmax":2,"fix":"full-fix","n":15,"duration":10,"membership":true},"faults":[]}"#;
        assert_eq!(FaultPlan::from_json(max).unwrap().seed, u64::MAX);
    }

    #[test]
    fn defaults_fill_in_omitted_fields() {
        let json = r#"{"name":"min","seed":7,
            "proto":{"variant":"binary","tmin":2,"tmax":8,"fix":"original","n":1,"duration":100},
            "faults":[{"kind":"loss","model":{"law":"bernoulli","p":0.1}},
                      {"kind":"drift","pid":1,"num":101,"den":100}]}"#;
        let plan = FaultPlan::from_json(json).unwrap();
        match &plan.faults[0] {
            FaultSpec::Loss { window, link, .. } => {
                assert_eq!(*window, Window::always());
                assert_eq!(*link, Link::any());
            }
            other => panic!("{other:?}"),
        }
        match &plan.faults[1] {
            FaultSpec::Drift { offset, .. } => assert_eq!(*offset, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn windows_and_links_match_correctly() {
        let w = Window::between(10, 20);
        assert!(!w.contains(9) && w.contains(10) && w.contains(19) && !w.contains(20));
        assert!(Window::always().contains(u64::MAX));
        let l = Link {
            src: Some(0),
            dst: None,
        };
        assert!(l.matches(0, 5) && !l.matches(1, 0));
        assert!(Link::between(1, 0).matches(1, 0));
        assert!(!Link::between(1, 0).matches(0, 1));
    }

    #[test]
    fn crash_schedule_is_extracted() {
        let plan = rich_plan();
        assert_eq!(plan.crashes(), vec![(1, 4_000)]);
        assert_eq!(plan.first_crash(), Some(4_000));
    }
}
