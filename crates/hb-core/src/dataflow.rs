//! Fixpoint abstract interpretation over the [`crate::describe`] IR:
//! per-variable interval/parity ranges and the symmetry certificate.
//!
//! The IR is deliberately parameter-free — `binary/original` has the
//! same shape for every `(tmin, tmax)` — so the analysis is split in
//! two:
//!
//! * a [`Concretization`] gives the parameter-dependent numeric meaning
//!   of the symbols: the *span* (absolute bound) of every variable, its
//!   initial value, and the firing interval of every timer. The
//!   constructors ([`Concretization::coordinator`],
//!   [`Concretization::responder`]) derive these from the spec structs
//!   and the urgency discipline (a timer can never pass its firing
//!   bound because the tick action is disabled while an event is due);
//! * [`analyze`] runs a worklist fixpoint over the machine's control
//!   states, interpreting guards as meets and transition
//!   [`UpdateKind`] / [`EpochEffect`] summaries as abstract
//!   assignments, with widening to the span after repeated growth.
//!
//! The analysis is parameterized by the *active trigger set*: by
//! default the checker's composed model exercises `Time`, `Receive` and
//! `Fault` transitions but not the `Internal` restart path
//! ([`CHECKER_TRIGGERS`]), so under that set the epoch variables are
//! provably pinned to `[0, 0]` (or `[0, 1]` for the coordinator bar
//! under §7 rejoin with leaves) and the packed state encoding in
//! `hb-verify` spends zero or one bit on them. A model whose
//! participants may rejoin is analyzed under [`REJOIN_TRIGGERS`]
//! instead, and pays the full epoch width.
//!
//! The second product is the **symmetry certificate**
//! ([`symmetry_certificate`]): a static proof that responder sub-states
//! are fully interchangeable. The proof obligation is discharged
//! structurally — the guard language ([`Atom`]) has no pid-valued
//! constructor and every send addresses a peer only through the
//! triggering message's endpoint, so rank asymmetry can only enter
//! through an explicitly declared [`PidScope::Rank`] transition. A
//! machine with such a transition is refused, and the transition name
//! is the counterexample the analyzer reports. Certified machines are
//! what lets `hb-verify::symmetry` replace `n!` brute-force
//! canonicalization with an `O(n log n)` sort-key pass; the declared
//! scopes are cross-checked dynamically by the quotient-vs-brute-force
//! agreement gate in CI.

use std::collections::BTreeMap;

use crate::coordinator::CoordSpec;
use crate::describe::{
    Atom, DescribeMachine, EpochEffect, MachineIr, PidScope, Transition, Trigger, UpdateKind,
    VarKind,
};
use crate::responder::RespSpec;

/// A closed integer interval `[lo, hi]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: u32,
    /// Inclusive upper bound.
    pub hi: u32,
}

impl Interval {
    /// The interval `[lo, hi]`. Panics if `lo > hi`.
    pub fn new(lo: u32, hi: u32) -> Self {
        assert!(lo <= hi, "empty interval [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// The singleton `[v, v]`.
    pub fn point(v: u32) -> Self {
        Self { lo: v, hi: v }
    }

    /// Smallest interval containing both.
    pub fn hull(self, other: Self) -> Self {
        Self {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Intersection, or `None` when disjoint.
    pub fn meet(self, other: Self) -> Option<Self> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Self { lo, hi })
    }

    /// Whether `v` lies inside.
    pub fn contains(self, v: u32) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Number of bits needed to store `v - lo` for any `v` in the
    /// interval — the packed-encoding width. A singleton needs zero.
    pub fn bits(self) -> u32 {
        let delta = self.hi - self.lo;
        32 - delta.leading_zeros()
    }
}

/// The parity half of the abstract domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parity {
    /// Provably even.
    Even,
    /// Provably odd.
    Odd,
    /// Unknown.
    Either,
}

impl Parity {
    /// Parity of a concrete value.
    pub fn of(v: u32) -> Self {
        if v.is_multiple_of(2) {
            Parity::Even
        } else {
            Parity::Odd
        }
    }

    /// Best parity for a whole interval (exact only on singletons).
    pub fn of_interval(iv: Interval) -> Self {
        if iv.lo == iv.hi {
            Parity::of(iv.lo)
        } else {
            Parity::Either
        }
    }

    /// Lattice join.
    pub fn join(self, other: Self) -> Self {
        if self == other {
            self
        } else {
            Parity::Either
        }
    }

    /// Lattice meet, `None` when contradictory (Even ∧ Odd).
    pub fn meet(self, other: Self) -> Option<Self> {
        match (self, other) {
            (Parity::Either, p) | (p, Parity::Either) => Some(p),
            (a, b) if a == b => Some(a),
            _ => None,
        }
    }

    /// Parity after `+1`.
    pub fn flip(self) -> Self {
        match self {
            Parity::Even => Parity::Odd,
            Parity::Odd => Parity::Even,
            Parity::Either => Parity::Either,
        }
    }
}

/// One abstract variable value: an interval refined by a parity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbsVal {
    /// Interval component.
    pub iv: Interval,
    /// Parity component.
    pub parity: Parity,
}

impl AbsVal {
    /// The singleton abstraction of `v`.
    pub fn point(v: u32) -> Self {
        Self {
            iv: Interval::point(v),
            parity: Parity::of(v),
        }
    }

    /// The whole span, parity as precise as the span allows.
    pub fn span(iv: Interval) -> Self {
        Self {
            iv,
            parity: Parity::of_interval(iv),
        }
    }

    /// Lattice join.
    pub fn join(self, other: Self) -> Self {
        Self {
            iv: self.iv.hull(other.iv),
            parity: self.parity.join(other.parity),
        }
    }

    /// Lattice meet, `None` when the components contradict.
    pub fn meet(self, other: Self) -> Option<Self> {
        let iv = self.iv.meet(other.iv)?;
        let parity = self.parity.meet(other.parity)?;
        // A singleton interval pins the parity; a contradiction there
        // means the conjunction is unsatisfiable.
        if iv.lo == iv.hi {
            Parity::of(iv.lo).meet(parity)?;
        }
        Some(Self { iv, parity })
    }
}

/// Numeric meaning for one machine's parameter-free IR symbols.
#[derive(Clone, Debug)]
pub struct Concretization {
    /// Absolute bound (span) of each variable the machine may declare.
    pub spans: BTreeMap<&'static str, Interval>,
    /// Initial-value interval of each variable.
    pub init: BTreeMap<&'static str, Interval>,
    /// Firing interval of each timer (the `TimerAtBound` refinement).
    pub bounds: BTreeMap<&'static str, Interval>,
    /// Epoch tags carried by deliverable flag-`true` messages.
    pub msg_epoch: Interval,
    /// Epoch tags carried by deliverable flag-`false` (leave) messages.
    pub leaver_epoch: Interval,
}

impl Concretization {
    /// Spans/inits/bounds for a coordinator spec.
    ///
    /// Invariants encoded here: the round length `t` starts at `tmax`
    /// and every recomputation commits values in `[tmin, tmax]` (a
    /// halving below `tmin` inactivates instead of committing);
    /// `elapsed` never passes `t <= tmax` because the timeout is urgent;
    /// the per-participant commits `tm[i]` obey the same floor.
    pub fn coordinator(spec: &CoordSpec) -> Self {
        let p = spec.params();
        let (tmin, tmax) = (p.tmin(), p.tmax());
        let join = spec.variant().has_join_phase();
        let mut spans = BTreeMap::new();
        let mut init = BTreeMap::new();
        let mut bounds = BTreeMap::new();
        spans.insert("status", Interval::new(0, 2));
        init.insert("status", Interval::point(0));
        spans.insert("t", Interval::new(tmin, tmax));
        init.insert("t", Interval::point(tmax));
        spans.insert("elapsed", Interval::new(0, tmax));
        init.insert(
            "elapsed",
            Interval::point(if spec.variant().initial_send_immediate() {
                tmax
            } else {
                0
            }),
        );
        // The round timeout fires when `elapsed == t`, and `t` ranges
        // over `[tmin, tmax]`.
        bounds.insert("elapsed", Interval::new(tmin, tmax));
        spans.insert("rcvd", Interval::new(0, 1));
        init.insert("rcvd", Interval::point(1));
        spans.insert("tm", Interval::new(tmin, tmax));
        init.insert("tm", Interval::point(tmax));
        spans.insert("jnd", Interval::new(0, 1));
        init.insert("jnd", Interval::point(if join { 0 } else { 1 }));
        spans.insert("left", Interval::new(0, 1));
        init.insert("left", Interval::point(0));
        spans.insert("min_epoch", Interval::new(0, 255));
        init.insert("min_epoch", Interval::point(0));
        Self {
            spans,
            init,
            bounds,
            msg_epoch: Interval::point(0),
            leaver_epoch: Interval::point(0),
        }
    }

    /// Spans/inits/bounds for a responder spec.
    ///
    /// The watchdog bound is the fix-level-dependent
    /// [`RespSpec::watchdog_bound`]; urgency keeps `waiting` at or
    /// below it. `join_elapsed` ticks only while unjoined and its send
    /// fires at `tmin`, so it never passes `tmin`.
    pub fn responder(spec: &RespSpec) -> Self {
        let p = spec.params();
        let tmin = p.tmin();
        let wd = spec.watchdog_bound();
        let join = spec.variant().has_join_phase();
        let mut spans = BTreeMap::new();
        let mut init = BTreeMap::new();
        let mut bounds = BTreeMap::new();
        spans.insert("status", Interval::new(0, 2));
        init.insert("status", Interval::point(0));
        spans.insert("waiting", Interval::new(0, wd));
        init.insert("waiting", Interval::point(0));
        bounds.insert("waiting", Interval::point(wd));
        spans.insert("joined", Interval::new(0, 1));
        init.insert("joined", Interval::point(if join { 0 } else { 1 }));
        spans.insert("epoch", Interval::new(0, 255));
        init.insert("epoch", Interval::point(0));
        spans.insert("join_elapsed", Interval::new(0, tmin));
        init.insert("join_elapsed", Interval::point(0));
        bounds.insert("join_elapsed", Interval::point(tmin));
        spans.insert("left", Interval::new(0, 1));
        init.insert("left", Interval::point(0));
        Self {
            spans,
            init,
            bounds,
            msg_epoch: Interval::point(0),
            leaver_epoch: Interval::point(0),
        }
    }

    /// Replace the wire-epoch inputs (used by the system-level fixpoint).
    pub fn with_wire_epochs(mut self, msg: Interval, leaver: Interval) -> Self {
        self.msg_epoch = msg;
        self.leaver_epoch = leaver;
        self
    }

    /// The declared span of `var`. Panics when the concretization does
    /// not cover a variable the IR declares — a missing span would
    /// silently degrade every downstream width proof.
    pub fn span(&self, var: &str) -> Interval {
        *self
            .spans
            .get(var)
            .unwrap_or_else(|| panic!("concretization missing span for {var}"))
    }

    /// The initial interval of `var` (same coverage contract as
    /// [`Concretization::span`]).
    pub fn initial(&self, var: &str) -> Interval {
        *self
            .init
            .get(var)
            .unwrap_or_else(|| panic!("concretization missing init for {var}"))
    }
}

/// The trigger set the composed checker model exercises by default:
/// timeouts, deliveries and crash faults, but not the `Internal`
/// restart path.
pub const CHECKER_TRIGGERS: [Trigger; 3] = [Trigger::Time, Trigger::Receive, Trigger::Fault];

/// The trigger set of a checker model whose participants may rejoin
/// (`HbModel::rejoin_cap > 0`): [`CHECKER_TRIGGERS`] plus the `Internal`
/// restart path the runtimes also take.
pub const REJOIN_TRIGGERS: [Trigger; 4] = [
    Trigger::Time,
    Trigger::Receive,
    Trigger::Fault,
    Trigger::Internal,
];

/// Widen a state's environment after this many joins.
const WIDEN_AFTER: usize = 6;

type Env = BTreeMap<&'static str, AbsVal>;

/// Result of [`analyze`]: ranges per control state and their hull.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Per-control-state variable ranges (absent state = unreachable).
    pub at: BTreeMap<&'static str, BTreeMap<&'static str, AbsVal>>,
    /// Join over all reachable control states — the machine-wide range.
    pub hull: BTreeMap<&'static str, AbsVal>,
    /// Control states unreachable under the active trigger set.
    pub unreachable: Vec<&'static str>,
}

impl Analysis {
    /// The machine-wide range of `var`, if the variable is declared and
    /// some state is reachable.
    pub fn range(&self, var: &str) -> Option<Interval> {
        self.hull.get(var).map(|a| a.iv)
    }
}

/// Relax every timer variable's upper bound to its span: within a
/// control state the global tick advances timers, and urgency caps them
/// at the firing bound already folded into the span.
fn relax_timers(ir: &MachineIr, conc: &Concretization, env: &mut Env) {
    for decl in &ir.vars {
        if decl.kind != VarKind::Timer {
            continue;
        }
        if let Some(v) = env.get_mut(decl.name) {
            let span = conc.span(decl.name);
            v.iv = Interval::new(v.iv.lo.min(span.hi), span.hi);
            v.parity = if v.iv.lo == v.iv.hi {
                Parity::of(v.iv.lo)
            } else {
                Parity::Either
            };
        }
    }
}

/// Guard refinement: meet the environment with what the atoms pin down.
/// Returns `None` when the guard is unsatisfiable in this environment.
fn refine(env: &mut Env, guard: &[Atom]) -> Option<()> {
    let mut pin = |var: &'static str, val: AbsVal| -> Option<()> {
        if let Some(cur) = env.get(var).copied() {
            env.insert(var, cur.meet(val)?);
        }
        Some(())
    };
    for atom in guard {
        match atom {
            Atom::Active => pin("status", AbsVal::point(0))?,
            Atom::Joined => pin("joined", AbsVal::point(1))?,
            Atom::NotJoined => pin("joined", AbsVal::point(0))?,
            Atom::TimerAtBound(_) => {} // handled below with the bound interval
            _ => {}
        }
    }
    Some(())
}

/// Apply one transition's summary to a source environment.
fn transfer(ir: &MachineIr, conc: &Concretization, t: &Transition, src: &Env) -> Option<Env> {
    let mut env = src.clone();
    refine(&mut env, &t.guard)?;
    for atom in &t.guard {
        if let Atom::TimerAtBound(timer) = atom {
            if let (Some(cur), Some(bound)) = (env.get(timer).copied(), conc.bounds.get(timer)) {
                let met = cur.meet(AbsVal::span(*bound))?;
                env.insert(timer, met);
            }
        }
    }
    // Non-epoch assignments: the declared summaries, then a havoc to
    // the span for any written variable without one.
    for u in &t.updates {
        let span = conc.span(u.var);
        let new = match u.kind {
            UpdateKind::Reset => AbsVal::point(0),
            UpdateKind::Set(c) => AbsVal::point(c),
            UpdateKind::ToSpan => AbsVal::span(span),
            UpdateKind::Increment => {
                let cur = env.get(u.var).copied().unwrap_or(AbsVal::span(span));
                AbsVal {
                    iv: Interval::new((cur.iv.lo + 1).min(span.hi), (cur.iv.hi + 1).min(span.hi)),
                    parity: cur.parity.flip(),
                }
            }
        };
        env.insert(u.var, new);
    }
    for w in &t.writes {
        let is_epoch = ir.var_kind(w) == Some(VarKind::Epoch);
        if is_epoch || t.updates.iter().any(|u| &u.var == w) {
            continue;
        }
        env.insert(w, AbsVal::span(conc.span(w)));
    }
    // Epoch assignments, via the declared effect.
    if t.epoch_effect != EpochEffect::None {
        for w in &t.writes {
            if ir.var_kind(w) != Some(VarKind::Epoch) {
                continue;
            }
            let span = conc.span(w);
            let cur = env.get(w).copied().unwrap_or(AbsVal::span(span));
            let new = match t.epoch_effect {
                EpochEffect::None => cur,
                EpochEffect::RaiseToTag => AbsVal::span(cur.iv.hull(conc.msg_epoch)),
                EpochEffect::BumpPastLeaver => {
                    if conc.leaver_epoch.hi >= span.hi {
                        AbsVal::span(span) // bump wraps: lose precision
                    } else {
                        AbsVal::span(cur.iv.hull(Interval::new(
                            conc.leaver_epoch.lo + 1,
                            conc.leaver_epoch.hi + 1,
                        )))
                    }
                }
                EpochEffect::BumpOnRevive => {
                    if cur.iv.hi >= span.hi {
                        AbsVal::span(span) // wraps
                    } else {
                        AbsVal {
                            iv: Interval::new(cur.iv.lo + 1, cur.iv.hi + 1),
                            parity: cur.parity.flip(),
                        }
                    }
                }
                EpochEffect::Clobber => AbsVal::span(span),
            };
            env.insert(w, new);
        }
    }
    relax_timers(ir, conc, &mut env);
    Some(env)
}

/// Join `src` into `tgt`; widen changed variables to their span once a
/// state has been joined more than [`WIDEN_AFTER`] times. Returns
/// whether anything changed.
fn join_env(conc: &Concretization, tgt: &mut Env, src: &Env, joins_so_far: usize) -> bool {
    let mut changed = false;
    for (var, val) in src {
        let merged = match tgt.get(var) {
            Some(old) => {
                let j = old.join(*val);
                if j == *old {
                    continue;
                }
                if joins_so_far > WIDEN_AFTER {
                    AbsVal::span(conc.span(var))
                } else {
                    j
                }
            }
            None => *val,
        };
        if tgt.get(var) != Some(&merged) {
            tgt.insert(var, merged);
            changed = true;
        }
    }
    changed
}

/// Run the fixpoint over one machine's IR.
///
/// `active` restricts which triggers the surrounding composition can
/// fire; transitions outside the set are treated as disabled (their
/// target states may become unreachable, and their effects — e.g. the
/// epoch bump on revive — never pollute the ranges).
pub fn analyze(ir: &MachineIr, conc: &Concretization, active: &[Trigger]) -> Analysis {
    let mut init_env: Env = ir
        .vars
        .iter()
        .map(|d| (d.name, AbsVal::span(conc.initial(d.name))))
        .collect();
    relax_timers(ir, conc, &mut init_env);

    let mut at: BTreeMap<&'static str, Env> = BTreeMap::new();
    let mut joins: BTreeMap<&'static str, usize> = BTreeMap::new();
    at.insert(ir.initial, init_env);
    let mut work: Vec<&'static str> = vec![ir.initial];
    while let Some(state) = work.pop() {
        let src = match at.get(state) {
            Some(e) => e.clone(),
            None => continue,
        };
        for t in ir.transitions.iter().filter(|t| t.from == state) {
            if !active.contains(&t.trigger) {
                continue;
            }
            let Some(post) = transfer(ir, conc, t, &src) else {
                continue;
            };
            let count = {
                let c = joins.entry(t.to).or_insert(0);
                *c += 1;
                *c
            };
            let tgt = at.entry(t.to).or_default();
            if join_env(conc, tgt, &post, count) && !work.contains(&t.to) {
                work.push(t.to);
            }
        }
    }

    let mut hull: BTreeMap<&'static str, AbsVal> = BTreeMap::new();
    for env in at.values() {
        for (var, val) in env {
            hull.entry(var)
                .and_modify(|h| *h = h.join(*val))
                .or_insert(*val);
        }
    }
    let unreachable = ir
        .states
        .iter()
        .copied()
        .filter(|s| !at.contains_key(s))
        .collect();
    Analysis {
        at: at.into_iter().collect(),
        hull,
        unreachable,
    }
}

/// The outcome of the static interchangeability proof for one machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SymmetryVerdict {
    /// Responder sub-states are fully interchangeable: relabelling
    /// participants commutes with every transition.
    Certified,
    /// A named transition consults a concrete rank asymmetrically; the
    /// quotient construction must refuse this machine.
    Refused {
        /// The offending transition (the certificate's counterexample).
        transition: &'static str,
        /// Why the transition is rank-dependent.
        reason: &'static str,
    },
}

impl SymmetryVerdict {
    /// Whether the machine is certified interchangeable.
    pub fn is_certified(&self) -> bool {
        matches!(self, SymmetryVerdict::Certified)
    }
}

/// Statically certify (or refute) participant interchangeability.
///
/// The guard language cannot name a pid — [`Atom`] has no pid-valued
/// constructor — and sends only address the triggering message's
/// endpoint, so the single way rank asymmetry enters a machine is an
/// explicit [`PidScope::Rank`] declaration. The first such transition
/// is returned as the counterexample. Declarations are honest by
/// construction review *and* by the dynamic cross-check: CI compares
/// quotient verdicts against the unreduced checker on the smoke grid,
/// which would diverge if a `Uniform` declaration were false.
pub fn symmetry_certificate(ir: &MachineIr) -> SymmetryVerdict {
    for t in &ir.transitions {
        if let PidScope::Rank(reason) = t.pid_scope {
            return SymmetryVerdict::Refused {
                transition: t.name,
                reason,
            };
        }
    }
    SymmetryVerdict::Certified
}

/// Machine-wide ranges for the composed coordinator + responder system,
/// with the wire-epoch feedback loop closed.
#[derive(Clone, Debug)]
pub struct SystemRanges {
    /// Coordinator analysis under the final wire-epoch interval.
    pub coord: Analysis,
    /// Responder analysis under the final wire-epoch interval.
    pub resp: Analysis,
    /// Epoch tags that can appear on any in-flight message.
    pub wire_epoch: Interval,
}

/// Close the mutual epoch dependency between the two roles.
///
/// Responder incarnations tag every message they send; the coordinator
/// bar rises to (or past) those tags; coordinator-originated beats are
/// epoch-0 plain beats and leave-acks echo the leaver's tag — so the
/// wire-epoch interval is the hull of `[0, 0]` and the responder's
/// incarnation range, and the loop converges in a couple of rounds
/// (monotone, bounded by the 8-bit span, widened inside [`analyze`]).
pub fn system_ranges(
    coord_spec: &CoordSpec,
    resp_spec: &RespSpec,
    active: &[Trigger],
) -> SystemRanges {
    let coord_ir = coord_spec.describe();
    let resp_ir = resp_spec.describe();
    let mut wire = Interval::point(0);
    for _ in 0..16 {
        let rc = Concretization::responder(resp_spec).with_wire_epochs(wire, wire);
        let ra = analyze(&resp_ir, &rc, active);
        let resp_epoch = ra.range("epoch").unwrap_or(Interval::point(0));
        let new_wire = Interval::point(0).hull(resp_epoch);
        if new_wire == wire {
            let cc = Concretization::coordinator(coord_spec).with_wire_epochs(wire, resp_epoch);
            let ca = analyze(&coord_ir, &cc, active);
            return SystemRanges {
                coord: ca,
                resp: ra,
                wire_epoch: wire,
            };
        }
        wire = new_wire;
    }
    unreachable!("wire-epoch fixpoint failed to converge on the 8-bit lattice")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixes::FixLevel;
    use crate::params::Params;
    use crate::variant::Variant;

    fn coord(variant: Variant, fix: FixLevel, n: usize) -> CoordSpec {
        CoordSpec::new(variant, Params::new(4, 10).unwrap(), n, fix)
    }

    fn resp(variant: Variant, fix: FixLevel) -> RespSpec {
        RespSpec::new(variant, Params::new(4, 10).unwrap(), fix)
    }

    #[test]
    fn coordinator_round_length_stays_between_tmin_and_tmax() {
        let spec = coord(Variant::Static, FixLevel::Full, 2);
        let a = analyze(
            &spec.describe(),
            &Concretization::coordinator(&spec),
            &CHECKER_TRIGGERS,
        );
        assert_eq!(a.range("t"), Some(Interval::new(4, 10)));
        assert_eq!(a.range("tm"), Some(Interval::new(4, 10)));
        assert_eq!(a.range("elapsed"), Some(Interval::new(0, 10)));
    }

    #[test]
    fn epochs_are_pinned_without_the_internal_trigger() {
        let spec = resp(Variant::Dynamic, FixLevel::Full);
        let a = analyze(
            &spec.describe(),
            &Concretization::responder(&spec),
            &CHECKER_TRIGGERS,
        );
        assert_eq!(a.range("epoch"), Some(Interval::point(0)));
        // With the restart path active the incarnation is unbounded and
        // widening takes it to the full 8-bit span.
        let wide = analyze(
            &spec.describe(),
            &Concretization::responder(&spec),
            &REJOIN_TRIGGERS,
        );
        assert_eq!(wide.range("epoch"), Some(Interval::new(0, 255)));
    }

    #[test]
    fn rejoin_bar_rises_at_most_one_past_the_pinned_incarnations() {
        let c = coord(Variant::Dynamic, FixLevel::Full, 2);
        let r = resp(Variant::Dynamic, FixLevel::Full);
        let sys = system_ranges(&c, &r, &CHECKER_TRIGGERS);
        assert_eq!(sys.wire_epoch, Interval::point(0));
        assert_eq!(sys.coord.range("min_epoch"), Some(Interval::new(0, 1)));
    }

    #[test]
    fn fault_free_analysis_proves_crash_states_unreachable() {
        let spec = resp(Variant::Binary, FixLevel::Original);
        let a = analyze(
            &spec.describe(),
            &Concretization::responder(&spec),
            &[Trigger::Time, Trigger::Receive],
        );
        assert!(a.unreachable.contains(&"crashed"));
        assert!(!a.unreachable.contains(&"nv-inactive"));
    }

    #[test]
    fn parity_tracks_singletons_and_gives_up_on_timers() {
        let spec = resp(Variant::Binary, FixLevel::Original);
        let a = analyze(
            &spec.describe(),
            &Concretization::responder(&spec),
            &CHECKER_TRIGGERS,
        );
        assert_eq!(a.hull["joined"].parity, Parity::Odd);
        assert_eq!(a.hull["waiting"].parity, Parity::Either);
    }

    #[test]
    fn widths_follow_from_proven_ranges() {
        assert_eq!(Interval::point(7).bits(), 0);
        assert_eq!(Interval::new(0, 1).bits(), 1);
        assert_eq!(Interval::new(4, 10).bits(), 3);
        assert_eq!(Interval::new(0, 255).bits(), 8);
    }

    #[test]
    fn plain_machines_are_certified_interchangeable() {
        for v in Variant::ALL {
            for fix in FixLevel::ALL {
                let n = if v.is_two_process() { 1 } else { 2 };
                let c = coord(v, fix, n);
                let r = resp(v, fix);
                assert!(symmetry_certificate(&c.describe()).is_certified());
                assert!(symmetry_certificate(&r.describe()).is_certified());
            }
        }
    }
}
