//! Shared event emission: one JSON-lines schema, one sink, one kind of tap.
//!
//! Both substrates — the `hb-sim` discrete-event world and the `hb-net`
//! live node runtime — drive the same state machines, so they emit the
//! same [`Event`]s in the same flat JSON schema. This module is the single
//! home of that schema: [`event_json`] renders a record, [`parse_event_json`]
//! reads one back (for log tailing), [`EventSink`] routes events to an
//! in-memory log and any number of attached [`EventTap`]s (e.g. a
//! streaming requirement monitor, which reports [`MonitorVerdicts`]). A
//! sink owns its taps; a tap several threads feed
//! is a [`SharedTap`], which is one more tap that locks inside
//! [`on_event`](EventTap::on_event). Records are written and read through
//! [`crate::json`], the workspace's one JSON module.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::json::{self, JsonError, ToJson, Value};
use crate::msg::{Heartbeat, Pid};
use crate::trace::{Event, EventLog};

/// One protocol event as a single-line JSON object (no trailing newline).
///
/// Every record carries `t` (discrete time) and `ev` (the event kind);
/// the remaining fields depend on the kind:
///
/// ```text
/// {"t":10,"ev":"send","from":0,"to":1,"flag":true}
/// {"t":12,"ev":"deliver","from":0,"to":1,"flag":true}
/// {"t":12,"ev":"lose","from":0,"to":1}
/// {"t":10,"ev":"timeout","pid":0}
/// {"t":12,"ev":"crash","pid":1}
/// {"t":38,"ev":"nv_inactivate","pid":0}
/// {"t":600,"ev":"leave","pid":1}
/// {"t":700,"ev":"revive","pid":1}
/// {"t":710,"ev":"view_change","pid":1,"view":2,"coord":1}
/// {"t":715,"ev":"state_transfer","from":1,"to":0,"view":2}
/// ```
///
/// `send`/`deliver` records also carry `"epoch"` when the heartbeat is
/// from a restarted incarnation (epoch > 0), keeping pre-rejoin logs
/// byte-stable.
pub fn event_json(e: &Event) -> String {
    json::render(e)
}

impl ToJson for Event {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("t", self.at()).field("ev", kind(self));
            match *self {
                Event::Send { from, to, hb, .. } | Event::Deliver { from, to, hb, .. } => {
                    o.field("from", from).field("to", to).field("flag", hb.flag);
                    if hb.epoch > 0 {
                        o.field("epoch", hb.epoch);
                    }
                }
                Event::Lose { from, to, .. } => {
                    o.field("from", from).field("to", to);
                }
                Event::Timeout { pid, .. }
                | Event::Crash { pid, .. }
                | Event::NvInactivate { pid, .. }
                | Event::Leave { pid, .. }
                | Event::Revive { pid, .. } => {
                    o.field("pid", pid);
                }
                Event::ViewChange {
                    pid,
                    view_no,
                    coordinator,
                    ..
                } => {
                    o.field("pid", pid)
                        .field("view", view_no)
                        .field("coord", coordinator);
                }
                Event::StateTransfer {
                    from, to, view_no, ..
                } => {
                    o.field("from", from).field("to", to).field("view", view_no);
                }
            }
        });
    }
}

/// A record's `ev` field.
fn kind(e: &Event) -> &'static str {
    match e {
        Event::Send { .. } => "send",
        Event::Deliver { .. } => "deliver",
        Event::Lose { .. } => "lose",
        Event::Timeout { .. } => "timeout",
        Event::Crash { .. } => "crash",
        Event::NvInactivate { .. } => "nv_inactivate",
        Event::Leave { .. } => "leave",
        Event::Revive { .. } => "revive",
        Event::ViewChange { .. } => "view_change",
        Event::StateTransfer { .. } => "state_transfer",
    }
}

/// Parse one line in the [`event_json`] schema back into an [`Event`].
///
/// Any valid JSON spelling of a record is read — whitespace, key order —
/// and `None` comes back on anything malformed; callers tailing a log
/// decide whether to skip or abort. Round-trips every record `event_json`
/// emits.
pub fn parse_event_json(line: &str) -> Option<Event> {
    Value::parse(line).and_then(|v| event_from(&v)).ok()
}

fn event_from(v: &Value) -> Result<Event, JsonError> {
    let at = v.field("t")?.as_u64()?;
    let pid = |key: &str| v.field(key)?.as_uint::<Pid>();
    let view_no = || v.field("view")?.as_uint::<u32>();
    let beat = |make: fn(u64, Pid, Pid, Heartbeat) -> Event| {
        let hb = match v.field("flag")?.as_bool()? {
            true => Heartbeat::plain(),
            false => Heartbeat::leave(),
        };
        let epoch = v.opt_field("epoch")?.map(Value::as_uint).transpose()?;
        let hb = hb.with_epoch(epoch.unwrap_or(0));
        Ok(make(at, pid("from")?, pid("to")?, hb))
    };
    let one = |make: fn(u64, Pid) -> Event| Ok(make(at, pid("pid")?));
    match v.field("ev")?.as_str()? {
        "send" => beat(|at, from, to, hb| Event::Send { at, from, to, hb }),
        "deliver" => beat(|at, from, to, hb| Event::Deliver { at, from, to, hb }),
        "timeout" => one(|at, pid| Event::Timeout { at, pid }),
        "crash" => one(|at, pid| Event::Crash { at, pid }),
        "nv_inactivate" => one(|at, pid| Event::NvInactivate { at, pid }),
        "leave" => one(|at, pid| Event::Leave { at, pid }),
        "revive" => one(|at, pid| Event::Revive { at, pid }),
        "lose" => Ok(Event::Lose {
            at,
            from: pid("from")?,
            to: pid("to")?,
        }),
        "view_change" => Ok(Event::ViewChange {
            at,
            pid: pid("pid")?,
            view_no: view_no()?,
            coordinator: pid("coord")?,
        }),
        "state_transfer" => Ok(Event::StateTransfer {
            at,
            from: pid("from")?,
            to: pid("to")?,
            view_no: view_no()?,
        }),
        other => Err(JsonError(format!("unknown event kind \"{other}\""))),
    }
}

/// The first violation of one requirement, as judged by a streaming
/// monitor: which process broke it, when, and against which bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FirstViolation {
    /// The process the violation is attributed to (the silent participant
    /// for R1, the inactivated process for R2/R3).
    pub pid: Pid,
    /// The tick at which the requirement first failed.
    pub at: u64,
    /// The offending bound (the R1 inactivation bound; 0 for the
    /// untimed requirements R2/R3).
    pub bound: u32,
}

impl ToJson for FirstViolation {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("pid", self.pid)
                .field("at", self.at)
                .field("bound", self.bound);
        });
    }
}

/// Monitor verdicts for one run: whether any requirement monitor fired,
/// and the first violation per requirement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonitorVerdicts {
    /// First R1 violation (a participant silent past the inactivation
    /// bound while the coordinator stayed active), if any.
    pub r1: Option<FirstViolation>,
    /// First R2 violation (a participant non-voluntarily inactivated in a
    /// fault-free run), if any.
    pub r2: Option<FirstViolation>,
    /// First R3 violation (the coordinator non-voluntarily inactivated in
    /// a fault-free run with every participant active), if any.
    pub r3: Option<FirstViolation>,
}

impl MonitorVerdicts {
    /// Whether no monitor fired.
    pub fn clean(&self) -> bool {
        self.r1.is_none() && self.r2.is_none() && self.r3.is_none()
    }

    /// The verdicts as a JSON object (the `"monitor"` field of a
    /// run summary record).
    pub fn to_json(&self) -> String {
        json::render(self)
    }
}

impl ToJson for MonitorVerdicts {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("clean", self.clean())
                .field("r1", self.r1)
                .field("r2", self.r2)
                .field("r3", self.r3);
        });
    }
}

/// `Any`-conversion support for [`EventTap`] objects, so an owned tap
/// handed to a sink can be recovered and downcast back to its concrete
/// type after the run. Blanket-implemented for every `'static` type —
/// tap implementors never write this themselves.
pub trait TapAny {
    /// Convert the boxed tap into a boxed [`Any`](std::any::Any) for
    /// downcasting.
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

impl<T: std::any::Any> TapAny for T {
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// An online consumer of the event stream (e.g. a streaming requirement
/// monitor). Taps are attached to an [`EventSink`] and see every event in
/// emission order, independent of whether the sink also logs.
pub trait EventTap: TapAny {
    /// Observe one event as it happens.
    fn on_event(&mut self, e: &Event);

    /// A copy for a forked run: fed what the original is fed next, it
    /// ends where the original ends. `None` (the default): the state
    /// cannot be copied, and a sink holding the tap cannot fork.
    fn fork(&self) -> Option<OwnedTap> {
        None
    }
}

/// A shareable tap handle: the runtime feeds events through it while the
/// harness keeps a clone to read verdicts out afterwards. It is itself an
/// [`EventTap`] that takes the lock inside [`on_event`](EventTap::on_event)
/// (a poisoned lock skips the event) and does not fork, as two runs
/// would feed one tap.
pub type SharedTap = Arc<Mutex<dyn EventTap + Send>>;

impl<T: EventTap + Send + ?Sized + 'static> EventTap for Arc<Mutex<T>> {
    fn on_event(&mut self, e: &Event) {
        if let Ok(mut tap) = self.lock() {
            tap.on_event(e);
        }
    }
}

/// An attached tap: the sink is the only holder, so dispatch is a plain
/// virtual call. Recover it after the run with
/// [`EventSink::take_owned_taps`] and downcast via [`TapAny::into_any`].
pub type OwnedTap = Box<dyn EventTap + Send>;

/// Where a process's events go: an in-memory [`EventLog`], any number of
/// live [`EventTap`]s — both, either, or nowhere.
#[derive(Default)]
pub struct EventSink {
    log: Option<EventLog>,
    taps: Vec<OwnedTap>,
}

impl fmt::Debug for EventSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventSink")
            .field("log", &self.log.as_ref().map(EventLog::len))
            .field("taps", &self.taps.len())
            .finish()
    }
}

impl EventSink {
    /// Discard all events (taps, if attached later, still run).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Keep events in memory for post-run inspection.
    pub fn memory() -> Self {
        EventSink {
            log: Some(EventLog::new()),
            ..Self::default()
        }
    }

    /// Attach a tap (a boxed clone of a [`SharedTap`], for one that other
    /// sinks or threads feed too); every later [`emit`](Self::emit)
    /// forwards the event to it. Recover it afterwards with
    /// [`take_owned_taps`](Self::take_owned_taps).
    pub fn attach_owned_tap(&mut self, tap: OwnedTap) {
        self.taps.push(tap);
    }

    /// A copy for a forked run: the log so far and a [`fork`](EventTap::fork)
    /// of every tap; later events reach one copy only. `None` if the sink
    /// has a tap that cannot fork, a shared one included.
    pub fn fork(&self) -> Option<EventSink> {
        let taps = self.taps.iter().map(|tap| tap.fork());
        Some(EventSink {
            log: self.log.clone(),
            taps: taps.collect::<Option<_>>()?,
        })
    }

    /// Detach and return every tap, in attachment order — so a harness
    /// can downcast them back to their concrete types and read verdicts
    /// out.
    pub fn take_owned_taps(&mut self) -> Vec<OwnedTap> {
        std::mem::take(&mut self.taps)
    }

    /// Record one event.
    pub fn emit(&mut self, e: &Event) {
        if let Some(log) = &mut self.log {
            log.push(*e);
        }
        for tap in &mut self.taps {
            tap.on_event(e);
        }
    }

    /// The in-memory log, if recording.
    pub fn log(&self) -> Option<&EventLog> {
        self.log.as_ref()
    }

    /// Take the in-memory log out of the sink (empty if not recording).
    pub fn take_log(&mut self) -> EventLog {
        self.log.take().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_record_kind_round_trips() {
        let events = [
            Event::Send {
                at: 10,
                from: 0,
                to: 1,
                hb: Heartbeat::plain(),
            },
            Event::Deliver {
                at: 12,
                from: 1,
                to: 0,
                hb: Heartbeat::plain().with_epoch(3),
            },
            Event::Deliver {
                at: 13,
                from: 1,
                to: 0,
                hb: Heartbeat::leave(),
            },
            Event::Lose {
                at: 12,
                from: 0,
                to: 1,
            },
            Event::Timeout { at: 10, pid: 0 },
            Event::Crash { at: 12, pid: 1 },
            Event::NvInactivate { at: 38, pid: 0 },
            Event::Leave { at: 600, pid: 1 },
            Event::Revive { at: 700, pid: 1 },
            Event::ViewChange {
                at: 710,
                pid: 1,
                view_no: 2,
                coordinator: 1,
            },
            Event::StateTransfer {
                at: 715,
                from: 1,
                to: 0,
                view_no: 2,
            },
        ];
        for e in events {
            let line = event_json(&e);
            assert_eq!(parse_event_json(&line), Some(e), "{line}");
        }
    }

    #[test]
    fn any_valid_spelling_of_a_record_parses() {
        assert_eq!(
            parse_event_json(r#"{"t": 9, "ev": "crash", "pid": 2}"#),
            Some(Event::Crash { at: 9, pid: 2 })
        );
        assert_eq!(
            parse_event_json(
                r#" { "epoch":3,"flag" :true,"to":0,"from":1,"ev":"deliver","t":12 } "#
            ),
            Some(Event::Deliver {
                at: 12,
                from: 1,
                to: 0,
                hb: Heartbeat::plain().with_epoch(3),
            })
        );
    }

    #[test]
    fn malformed_lines_parse_to_none() {
        for bad in [
            "",
            "{}",
            "{\"t\":1}",
            "{\"t\":1,\"ev\":\"warp\",\"pid\":0}",
            "not json",
        ] {
            assert_eq!(parse_event_json(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn taps_see_every_emitted_event() {
        struct Counter(usize);
        impl EventTap for Counter {
            fn on_event(&mut self, _e: &Event) {
                self.0 += 1;
            }
        }
        let tap = Arc::new(Mutex::new(Counter(0)));
        let mut sink = EventSink::disabled();
        sink.attach_owned_tap(Box::new(tap.clone()));
        sink.emit(&Event::Timeout { at: 1, pid: 0 });
        sink.emit(&Event::Crash { at: 2, pid: 1 });
        assert_eq!(tap.lock().unwrap().0, 2);
    }

    #[test]
    fn every_tap_comes_back_in_attachment_order() {
        struct Counter(usize);
        impl EventTap for Counter {
            fn on_event(&mut self, _e: &Event) {
                self.0 += 1;
            }
        }
        let shared = Arc::new(Mutex::new(Counter(0)));
        let mut sink = EventSink::disabled();
        sink.attach_owned_tap(Box::new(Counter(0)));
        sink.attach_owned_tap(Box::new(shared.clone()));
        sink.attach_owned_tap(Box::new(Counter(0)));
        sink.emit(&Event::Timeout { at: 1, pid: 0 });
        sink.emit(&Event::Crash { at: 2, pid: 1 });
        sink.emit(&Event::Revive { at: 3, pid: 1 });
        // All three come back, in attachment order and downcastable, the
        // shared one as a clone of the handle the caller holds.
        let mut taps: Vec<_> = sink
            .take_owned_taps()
            .into_iter()
            .map(TapAny::into_any)
            .collect();
        assert_eq!(taps.len(), 3);
        let handle = taps.remove(1).downcast::<Arc<Mutex<Counter>>>().unwrap();
        assert!(Arc::ptr_eq(&handle, &shared));
        for tap in taps {
            assert_eq!(tap.downcast::<Counter>().expect("a Counter").0, 3);
        }
        // Taken, it hears nothing more.
        sink.emit(&Event::Leave { at: 4, pid: 1 });
        assert_eq!(shared.lock().unwrap().0, 3);
        assert!(sink.take_owned_taps().is_empty());
    }

    /// A tap that copies itself on fork and remembers what it saw.
    #[derive(Clone, Default)]
    struct Seen(Vec<Event>);
    impl EventTap for Seen {
        fn on_event(&mut self, e: &Event) {
            self.0.push(*e);
        }

        fn fork(&self) -> Option<OwnedTap> {
            Some(Box::new(self.clone()))
        }
    }

    fn seen(tap: OwnedTap) -> Vec<Event> {
        tap.into_any().downcast::<Seen>().expect("a Seen").0
    }

    #[test]
    fn a_forked_sink_copies_its_log_and_owned_taps_and_then_runs_apart() {
        let (before, mine, theirs) = (
            Event::Timeout { at: 1, pid: 0 },
            Event::Crash { at: 2, pid: 1 },
            Event::Revive { at: 3, pid: 1 },
        );
        let mut sink = EventSink::memory();
        sink.attach_owned_tap(Box::<Seen>::default());
        sink.emit(&before);
        let mut fork = sink.fork().expect("a log and an owned tap fork");
        sink.emit(&mine);
        fork.emit(&theirs);
        assert_eq!(sink.log().unwrap().events(), [before, mine]);
        assert_eq!(fork.log().unwrap().events(), [before, theirs]);
        // Each copy of the tap saw the prefix and its own run only.
        assert_eq!(seen(sink.take_owned_taps().remove(0)), [before, mine]);
        assert_eq!(seen(fork.take_owned_taps().remove(0)), [before, theirs]);
    }

    #[test]
    fn a_sink_with_a_shared_tap_or_an_unforkable_tap_does_not_fork() {
        struct Opaque;
        impl EventTap for Opaque {
            fn on_event(&mut self, _e: &Event) {}
        }
        assert!(EventSink::disabled().fork().is_some());
        let mut shared = EventSink::disabled();
        shared.attach_owned_tap(Box::new(Arc::new(Mutex::new(Seen::default()))));
        assert!(shared.fork().is_none());
        let mut opaque = EventSink::disabled();
        opaque.attach_owned_tap(Box::<Seen>::default());
        opaque.attach_owned_tap(Box::new(Opaque));
        assert!(opaque.fork().is_none());
    }

    #[test]
    fn monitor_verdicts_render_as_a_nested_object() {
        let clean = MonitorVerdicts::default();
        assert!(clean.clean());
        assert_eq!(
            clean.to_json(),
            "{\"clean\":true,\"r1\":null,\"r2\":null,\"r3\":null}"
        );
        let fired = MonitorVerdicts {
            r1: Some(FirstViolation {
                pid: 1,
                at: 1022,
                bound: 16,
            }),
            ..MonitorVerdicts::default()
        };
        assert!(!fired.clean());
        assert_eq!(
            fired.to_json(),
            "{\"clean\":false,\"r1\":{\"pid\":1,\"at\":1022,\"bound\":16},\
             \"r2\":null,\"r3\":null}"
        );
    }
}
