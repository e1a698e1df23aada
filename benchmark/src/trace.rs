//! Span recording for the traced run.
//!
//! Spans are opened and closed by the bench-owned decorators in
//! [`crate::decorators`] and by the round loops in [`crate::workloads`]
//! — never from inside the measured crates. Every workload drives its
//! layers from one thread, so the recorder is a thread-local: the
//! decorators stay plain `Send` values with no handle to carry.
//!
//! A span is a fixed-size record (name id, start, end, parent) appended
//! to a vector preallocated at [`install`]; once the vector is full
//! further spans are counted but not stored. The roll-up (count, total
//! and **self** time per span name) is kept as spans close, so it is
//! exact even when records were dropped. Self time is a span's duration
//! minus the part of it covered by its direct children.

use std::cell::RefCell;
use std::time::Instant;

/// The span names the benchmark records, outermost first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum Name {
    /// One traced round of a workload.
    Round,
    /// One protocol tick of a round loop.
    Tick,
    /// One plan run of a traced campaign.
    ChaosRun,
    /// `NodeRuntime::poll`.
    NetNodePoll,
    /// `Transport::send` through `TracedTransport`.
    NetTransportSend,
    /// `Transport::try_recv` through `TracedTransport`.
    NetTransportRecv,
    /// `Mesh::send` through `TracedMesh`.
    MemberMeshSend,
    /// `Mesh::recv_due` through `TracedMesh`.
    MemberMeshRecv,
    /// `FaultHook::fate` through `TracedHook` (`FaultPipeline::decide`
    /// on the chaos workload).
    ChaosDecide,
    /// `EventTap::on_event` through `TracedTap` (`MonitorSet::observe`
    /// where a monitor is attached).
    MonitorObserve,
    /// One model-checking run.
    MckCheck,
    /// `Model::actions` through `TracedModel`.
    VerifyActions,
    /// `Model::next_state` through `TracedModel`.
    VerifyNextState,
    /// The symmetry canonicalizer.
    VerifyCanonical,
    /// `AmpleOracle::ample` through `TracedOracle`.
    VerifyAmple,
    /// `StateCodec::encode` through `TracedCodec`.
    VerifyCodecEncode,
    /// `StateCodec::decode` through `TracedCodec`.
    VerifyCodecDecode,
}

impl Name {
    /// Every span name, in id order.
    pub const ALL: [Name; 17] = [
        Name::Round,
        Name::Tick,
        Name::ChaosRun,
        Name::NetNodePoll,
        Name::NetTransportSend,
        Name::NetTransportRecv,
        Name::MemberMeshSend,
        Name::MemberMeshRecv,
        Name::ChaosDecide,
        Name::MonitorObserve,
        Name::MckCheck,
        Name::VerifyActions,
        Name::VerifyNextState,
        Name::VerifyCanonical,
        Name::VerifyAmple,
        Name::VerifyCodecEncode,
        Name::VerifyCodecDecode,
    ];

    /// The dotted name written to `trace_<workload>.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Round => "round",
            Name::Tick => "tick",
            Name::ChaosRun => "chaos.run",
            Name::NetNodePoll => "net.node.poll",
            Name::NetTransportSend => "net.transport.send",
            Name::NetTransportRecv => "net.transport.recv",
            Name::MemberMeshSend => "member.mesh.send",
            Name::MemberMeshRecv => "member.mesh.recv",
            Name::ChaosDecide => "chaos.pipeline.decide",
            Name::MonitorObserve => "monitor.observe",
            Name::MckCheck => "mck.check",
            Name::VerifyActions => "verify.model.actions",
            Name::VerifyNextState => "verify.model.next_state",
            Name::VerifyCanonical => "verify.canonical",
            Name::VerifyAmple => "verify.ample",
            Name::VerifyCodecEncode => "verify.codec.encode",
            Name::VerifyCodecDecode => "verify.codec.decode",
        }
    }
}

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span: 24 bytes, no pointers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into [`Name::ALL`].
    pub name: u16,
    /// Index of the enclosing span's record, or [`NO_PARENT`] (also used
    /// when the parent's record was dropped).
    pub parent: u32,
    /// Nanoseconds since [`install`].
    pub start_ns: u64,
    /// Nanoseconds since [`install`].
    pub end_ns: u64,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Roll {
    /// Spans closed under this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus what their direct children covered.
    pub self_ns: u64,
}

struct Open {
    name: Name,
    /// Index reserved for this span's record, if there was room.
    slot: Option<u32>,
    start_ns: u64,
    children_ns: u64,
}

/// The recorder: a bounded span vector, the open-span stack and the
/// running roll-up.
pub struct Recorder {
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
    stack: Vec<Open>,
    rolls: [Roll; Name::ALL.len()],
    epoch: Instant,
}

impl Recorder {
    /// A recorder that stores at most `capacity` span records.
    pub fn new(capacity: usize) -> Self {
        Recorder {
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
            stack: Vec::with_capacity(16),
            rolls: [Roll::default(); Name::ALL.len()],
            epoch: Instant::now(),
        }
    }

    /// Open a span at an explicit timestamp.
    pub fn enter_at(&mut self, name: Name, now_ns: u64) {
        // Reserve the record now so children can name their parent.
        let slot = if self.spans.len() < self.capacity {
            let parent = self
                .stack
                .last()
                .and_then(|open| open.slot)
                .unwrap_or(NO_PARENT);
            self.spans.push(Span {
                name: name as u16,
                parent,
                start_ns: now_ns,
                end_ns: now_ns,
            });
            Some((self.spans.len() - 1) as u32)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(Open {
            name,
            slot,
            start_ns: now_ns,
            children_ns: 0,
        });
    }

    /// Close the innermost open span at an explicit timestamp.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn exit_at(&mut self, now_ns: u64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let duration = now_ns.saturating_sub(open.start_ns);
        if let Some(slot) = open.slot {
            self.spans[slot as usize].end_ns = now_ns;
        }
        let roll = &mut self.rolls[open.name as usize];
        roll.count += 1;
        roll.total_ns += duration;
        roll.self_ns += duration.saturating_sub(open.children_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += duration;
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Finish recording.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn finish(self) -> Trace {
        assert!(self.stack.is_empty(), "trace finished with a span open");
        Trace {
            spans: self.spans,
            dropped: self.dropped,
            rolls: self.rolls,
        }
    }
}

/// A finished recording.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The stored records, in opening order.
    pub spans: Vec<Span>,
    /// Spans that closed after the record vector was full (still in the
    /// roll-up).
    pub dropped: u64,
    rolls: [Roll; Name::ALL.len()],
}

impl Trace {
    /// The roll-up for `name`.
    pub fn roll(&self, name: Name) -> Roll {
        self.rolls[name as usize]
    }

    /// Spans closed under `name`.
    pub fn count(&self, name: Name) -> f64 {
        self.roll(name).count as f64
    }

    /// Mean duration of `name` in ns (0 when never seen).
    pub fn mean_ns(&self, name: Name) -> f64 {
        let r = self.roll(name);
        if r.count == 0 {
            0.0
        } else {
            r.total_ns as f64 / r.count as f64
        }
    }

    /// The trace file: the roll-up per span name, then up to
    /// `max_spans` raw records.
    pub fn to_json(&self, workload: &str, max_spans: usize) -> String {
        let rollup: Vec<String> = Name::ALL
            .iter()
            .filter(|n| self.roll(**n).count > 0)
            .map(|n| {
                let r = self.roll(*n);
                format!(
                    "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                    n.as_str(),
                    r.count,
                    r.total_ns,
                    r.self_ns
                )
            })
            .collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .take(max_spans)
            .enumerate()
            .map(|(id, s)| {
                let parent = if s.parent == NO_PARENT || s.parent as usize >= max_spans {
                    "null".to_string()
                } else {
                    s.parent.to_string()
                };
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                    Name::ALL[s.name as usize].as_str(),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!(
            "{{\"record\":\"trace\",\"workload\":\"{workload}\",\"spans_closed\":{},\
             \"spans_stored\":{},\"spans_written\":{},\n\"rollup\":[\n{}\n],\n\"spans\":[\n{}\n]}}\n",
            self.rolls.iter().map(|r| r.count).sum::<u64>(),
            self.spans.len(),
            spans.len(),
            rollup.join(",\n"),
            spans.join(",\n")
        )
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread, storing at most `capacity` records.
pub fn install(capacity: usize) {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new(capacity)));
}

/// Stop recording on this thread and hand the trace back.
///
/// # Panics
///
/// Panics if [`install`] was not called or a span is still open.
pub fn finish() -> Trace {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .expect("trace::finish without trace::install")
        .finish()
}

/// Open a span now. A no-op when nothing is installed.
pub fn enter(name: Name) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let now = rec.now_ns();
            rec.enter_at(name, now);
        }
    });
}

/// Close the innermost span now. A no-op when nothing is installed.
pub fn exit() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let now = rec.now_ns();
            rec.exit_at(now);
        }
    });
}

/// Run `f` inside a span.
pub fn span<R>(name: Name, f: impl FnOnce() -> R) -> R {
    enter(name);
    let out = f();
    exit();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_indexed_by_their_id() {
        for (i, n) in Name::ALL.iter().enumerate() {
            assert_eq!(*n as usize, i);
        }
    }

    #[test]
    fn self_time_excludes_nested_and_sibling_children() {
        let mut rec = Recorder::new(16);
        rec.enter_at(Name::Round, 0);
        rec.enter_at(Name::Tick, 10);
        rec.enter_at(Name::NetNodePoll, 20);
        rec.enter_at(Name::NetTransportSend, 25);
        rec.exit_at(35); // send: 10, no children
        rec.exit_at(50); // poll: 30, child 10 -> self 20
        rec.enter_at(Name::NetNodePoll, 60);
        rec.exit_at(70); // sibling poll: 10, self 10
        rec.exit_at(100); // tick: 90, children 30 + 10 -> self 50
        rec.exit_at(130); // round: 130, child 90 -> self 40
        let t = rec.finish();
        assert_eq!(
            t.roll(Name::NetTransportSend),
            Roll {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        assert_eq!(
            t.roll(Name::NetNodePoll),
            Roll {
                count: 2,
                total_ns: 40,
                self_ns: 30
            }
        );
        assert_eq!(
            t.roll(Name::Tick),
            Roll {
                count: 1,
                total_ns: 90,
                self_ns: 50
            }
        );
        assert_eq!(
            t.roll(Name::Round),
            Roll {
                count: 1,
                total_ns: 130,
                self_ns: 40
            }
        );
        // Self times partition the root's duration.
        let self_sum: u64 = Name::ALL.iter().map(|n| t.roll(*n).self_ns).sum();
        assert_eq!(self_sum, 130);
        // Parent links follow the nesting.
        let parents: Vec<u32> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 1, 2, 1]);
        assert_eq!(t.spans[3].end_ns - t.spans[3].start_ns, 10);
    }

    #[test]
    fn a_full_record_vector_drops_records_not_counts() {
        let mut rec = Recorder::new(2);
        rec.enter_at(Name::Round, 0);
        for i in 0..5u64 {
            rec.enter_at(Name::Tick, 10 * i);
            rec.exit_at(10 * i + 4);
        }
        rec.exit_at(100);
        let t = rec.finish();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.dropped, 4);
        assert_eq!(t.roll(Name::Tick).count, 5);
        assert_eq!(t.roll(Name::Tick).total_ns, 20);
        assert_eq!(t.roll(Name::Round).self_ns, 80);
    }

    #[test]
    fn thread_local_spans_are_no_ops_until_installed() {
        span(Name::Tick, || ()); // nothing installed: must not panic
        install(8);
        span(Name::Round, || span(Name::Tick, || ()));
        let t = finish();
        assert_eq!(t.roll(Name::Round).count, 1);
        assert_eq!(t.roll(Name::Tick).count, 1);
        assert!(t.to_json("w", 8).contains("\"name\":\"tick\""));
    }
}
