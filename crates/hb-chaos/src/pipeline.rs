//! The fault pipeline: a [`FaultPlan`]'s message-level [`FaultSpec`]s,
//! interpreted per message to decide its fate.
//!
//! [`FaultPipeline`] is the single injection engine shared by every
//! substrate, installed the same way on each: as the [`FaultHook`] asked
//! where a message enters the queue — the simulator's world, the live
//! loopback network, the membership engine. All fault randomness lives
//! in the pipeline's own RNG, seeded from the plan — replaying a plan
//! with the same seed reproduces the exact fault schedule, independently
//! of the substrate's delay randomness.
//!
//! Per message the pipeline walks the active matching faults in plan
//! order: a partition or one-way cut drops it outright (no randomness
//! consumed); a [`Loss`](FaultSpec::Loss) fault steps its own chain
//! (Gilbert–Elliott burst state is per fault) and may drop it; a
//! duplicate fault adds a copy with probability `p`; a reorder fault
//! holds it back `1..=max_extra` extra ticks with probability `p`; a
//! delay spike adds its flat extra delay. Extra delays saturate at
//! `u32::MAX`. A message an earlier entry cut draws no duplication or
//! reordering randomness and takes no spike, but loss chains step even
//! for cut messages, so a burst chain's state depends only on the
//! message sequence, not on which other faults are active.

use hb_core::fault::{FaultHook, LossModel, SendFate, Time};
use hb_core::Pid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::plan::{FaultPlan, FaultSpec};

/// Running totals of what the pipeline did to the traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Messages the pipeline was consulted for.
    pub decided: u64,
    /// Messages dropped (structurally or by a loss model).
    pub dropped: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Messages given extra delay (reorder or spike).
    pub delayed: u64,
}

/// A stateful fault-injection engine for one plan run.
#[derive(Clone, Debug)]
pub struct FaultPipeline {
    /// The plan's message-level faults in plan order, each with its
    /// Gilbert–Elliott state (whether its burst chain is in the bad
    /// state; only a loss fault's ever changes).
    faults: Vec<(FaultSpec, bool)>,
    rng: StdRng,
    stats: PipelineStats,
}

impl FaultPipeline {
    /// Take the message-level faults of `plan`. Schedule-level faults
    /// (crash / start / leave / revive / drift) are the harness's job and
    /// are ignored here.
    pub fn new(plan: &FaultPlan) -> Self {
        let on_messages = plan.faults.iter().filter(|f| f.on_messages());
        FaultPipeline {
            faults: on_messages.map(|f| (f.clone(), false)).collect(),
            // Decorrelated from the substrate's delay RNG (which is seeded
            // with the raw plan seed): the fault schedule must not shift
            // when a substrate changes how it draws delays.
            rng: StdRng::seed_from_u64(plan.seed ^ 0x6368_616f_735f_7231),
            stats: PipelineStats::default(),
        }
    }

    /// What the pipeline has done so far.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Decide the fate of one message (shared by both backends).
    pub fn decide(&mut self, now: Time, src: Pid, dst: Pid) -> SendFate {
        self.stats.decided += 1;
        let mut cut = false;
        let mut lost = false;
        let mut copies = 1u32;
        let mut extra = 0u32;
        for (fault, ge_bad) in &mut self.faults {
            match fault {
                FaultSpec::Partition { window, groups } if window.contains(now) => {
                    let group_of = |pid: Pid| groups.iter().position(|g| g.contains(&pid));
                    if let (Some(a), Some(b)) = (group_of(src), group_of(dst)) {
                        cut |= a != b;
                    }
                }
                FaultSpec::OneWay {
                    window,
                    src: cut_src,
                    dst: cut_dst,
                } if window.contains(now) => {
                    cut |= cut_src.contains(&src) && cut_dst.contains(&dst);
                }
                FaultSpec::Loss {
                    window,
                    link,
                    model,
                } if window.contains(now) && link.matches(src, dst) => {
                    lost |= model.drops(ge_bad, &mut self.rng);
                }
                FaultSpec::Duplicate { window, link, p }
                    if !cut && window.contains(now) && link.matches(src, dst) =>
                {
                    copies += u32::from(self.rng.gen_bool(*p));
                }
                FaultSpec::Reorder {
                    window,
                    link,
                    p,
                    max_extra,
                } if !cut
                    && *max_extra > 0
                    && window.contains(now)
                    && link.matches(src, dst)
                    && self.rng.gen_bool(*p) =>
                {
                    extra = extra.saturating_add(self.rng.gen_range(1..=*max_extra));
                }
                FaultSpec::DelaySpike { window, extra: e } if !cut && window.contains(now) => {
                    extra = extra.saturating_add(*e);
                }
                _ => {}
            }
        }
        if cut || lost {
            self.stats.dropped += 1;
            return SendFate::Drop;
        }
        self.stats.duplicated += u64::from(copies - 1);
        if extra > 0 {
            self.stats.delayed += 1;
        }
        SendFate::Deliver {
            copies,
            extra_delay: extra,
        }
    }
}

impl FaultHook for FaultPipeline {
    fn fate(&mut self, now: Time, src: Pid, dst: Pid) -> SendFate {
        self.decide(now, src, dst)
    }

    fn fork(&self) -> Option<Box<dyn FaultHook>> {
        Some(Box::new(self.clone()))
    }
}

/// Derive a Gilbert–Elliott burst model from an average loss probability
/// `p` and a mean burst length `len` (in messages): the bad state always
/// drops, the good state never does, bursts end with probability
/// `1/len`, and the entry rate is chosen so the stationary loss equals
/// `p`. `p = 0` yields a lossless model; `len <= 1` degenerates to
/// near-independent losses.
///
/// # Panics
///
/// Panics unless `0 <= p < 1`.
pub fn burst_model(p: f64, len: f64) -> LossModel {
    assert!((0.0..1.0).contains(&p), "average loss must be in [0, 1)");
    if p == 0.0 {
        return LossModel::Bernoulli(0.0);
    }
    let to_good = (1.0 / len.max(1.0)).min(1.0);
    let to_bad = (to_good * p / (1.0 - p)).min(1.0);
    LossModel::GilbertElliott {
        to_bad,
        to_good,
        good_loss: 0.0,
        bad_loss: 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Link, ProtoSpec, Window};
    use hb_core::{FixLevel, Params, Variant};

    fn base_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(
            "t",
            seed,
            ProtoSpec {
                variant: Variant::Binary,
                params: Params::new(2, 8).unwrap(),
                fix: FixLevel::Full,
                n: 3,
                duration: 1_000,
                membership: false,
            },
        )
    }

    #[test]
    fn partition_cuts_across_groups_only() {
        let plan = base_plan(1).with(FaultSpec::Partition {
            window: Window::between(10, 20),
            groups: vec![vec![0, 1], vec![2, 3]],
        });
        let mut pl = FaultPipeline::new(&plan);
        // Inside the window: cross-group drops, intra-group passes.
        assert_eq!(pl.decide(10, 0, 2), SendFate::Drop);
        assert_eq!(pl.decide(15, 3, 1), SendFate::Drop);
        assert_eq!(pl.decide(15, 0, 1), SendFate::clean());
        assert_eq!(pl.decide(15, 2, 3), SendFate::clean());
        // Outside: everything passes.
        assert_eq!(pl.decide(9, 0, 2), SendFate::clean());
        assert_eq!(pl.decide(20, 0, 2), SendFate::clean());
        assert_eq!(pl.stats().dropped, 2);
    }

    #[test]
    fn one_way_cut_is_asymmetric() {
        let plan = base_plan(1).with(FaultSpec::OneWay {
            window: Window::always(),
            src: vec![1],
            dst: vec![0],
        });
        let mut pl = FaultPipeline::new(&plan);
        assert_eq!(pl.decide(0, 1, 0), SendFate::Drop, "cut direction");
        assert_eq!(pl.decide(0, 0, 1), SendFate::clean(), "reverse flows");
    }

    #[test]
    fn loss_rate_tracks_the_model() {
        let plan = base_plan(3).with(FaultSpec::Loss {
            window: Window::always(),
            link: Link::any(),
            model: LossModel::Bernoulli(0.3),
        });
        let mut pl = FaultPipeline::new(&plan);
        for _ in 0..10_000 {
            pl.decide(0, 0, 1);
        }
        let rate = pl.stats().dropped as f64 / pl.stats().decided as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed {rate}");
    }

    #[test]
    fn duplication_reorder_and_spikes_shape_delivery() {
        let plan = base_plan(4)
            .with(FaultSpec::Duplicate {
                window: Window::always(),
                link: Link::any(),
                p: 1.0,
            })
            .with(FaultSpec::Reorder {
                window: Window::always(),
                link: Link::any(),
                p: 1.0,
                max_extra: 3,
            })
            .with(FaultSpec::DelaySpike {
                window: Window::between(100, 200),
                extra: 7,
            });
        let mut pl = FaultPipeline::new(&plan);
        match pl.decide(0, 0, 1) {
            SendFate::Deliver {
                copies,
                extra_delay,
            } => {
                assert_eq!(copies, 2);
                assert!((1..=3).contains(&extra_delay), "got {extra_delay}");
            }
            SendFate::Drop => panic!("nothing drops here"),
        }
        match pl.decide(150, 0, 1) {
            SendFate::Deliver { extra_delay, .. } => {
                assert!((8..=10).contains(&extra_delay), "spike adds 7");
            }
            SendFate::Drop => panic!("nothing drops here"),
        }
        assert_eq!(pl.stats().duplicated, 2);
        assert_eq!(pl.stats().delayed, 2);
    }

    #[test]
    fn same_seed_same_fate_stream() {
        let plan = base_plan(9)
            .with(FaultSpec::Loss {
                window: Window::always(),
                link: Link::any(),
                model: burst_model(0.2, 4.0),
            })
            .with(FaultSpec::Duplicate {
                window: Window::always(),
                link: Link::any(),
                p: 0.1,
            });
        let stream = |plan: &FaultPlan| {
            let mut pl = FaultPipeline::new(plan);
            (0..500).map(|t| pl.decide(t, 0, 1)).collect::<Vec<_>>()
        };
        assert_eq!(stream(&plan), stream(&plan));
        let mut other = plan.clone();
        other.seed = 10;
        assert_ne!(stream(&plan), stream(&other));
    }

    #[test]
    fn burst_model_hits_the_requested_average() {
        for (p, len) in [(0.1, 4.0), (0.3, 8.0), (0.05, 2.0)] {
            let m = burst_model(p, len);
            assert!(
                (m.average_loss() - p).abs() < 1e-9,
                "p={p} len={len}: got {}",
                m.average_loss()
            );
        }
        assert_eq!(burst_model(0.0, 4.0).average_loss(), 0.0);
    }

    /// Every message-level kind in one plan (Bernoulli and burst loss,
    /// partition, one-way cut, duplication, reordering, two delay spikes)
    /// over overlapping windows, per-link and any-link, with lifecycle
    /// and drift entries between them, swept over `(now, src, dst)` for
    /// 64 seeds: the length and FNV-1a-64 digest of the fate stream are
    /// pinned, so any change to the order of the faults' random draws or
    /// to their arithmetic moves them.
    #[test]
    fn every_fault_kind_fate_stream_is_pinned() {
        let plan = |seed| {
            base_plan(seed)
                .with(FaultSpec::Loss {
                    window: Window::between(0, 120),
                    link: Link::between(0, 1),
                    model: LossModel::Bernoulli(0.1),
                })
                .with(FaultSpec::Crash { pid: 2, at: 50 })
                .with(FaultSpec::Duplicate {
                    window: Window::between(20, 180),
                    link: Link::any(),
                    p: 0.3,
                })
                .with(FaultSpec::Partition {
                    window: Window::between(60, 90),
                    groups: vec![vec![0, 1], vec![2, 3]],
                })
                .with(FaultSpec::Drift {
                    pid: 1,
                    offset: 3,
                    num: 101,
                    den: 100,
                })
                .with(FaultSpec::Reorder {
                    window: Window::between(30, 220),
                    link: Link {
                        src: Some(0),
                        dst: None,
                    },
                    p: 0.4,
                    max_extra: 5,
                })
                .with(FaultSpec::Loss {
                    window: Window::between(40, 200),
                    link: Link::any(),
                    model: burst_model(0.2, 4.0),
                })
                .with(FaultSpec::OneWay {
                    window: Window::between(80, 160),
                    src: vec![3],
                    dst: vec![0, 1],
                })
                .with(FaultSpec::Revive { pid: 2, at: 100 })
                .with(FaultSpec::DelaySpike {
                    window: Window::between(100, 130),
                    extra: 7,
                })
                .with(FaultSpec::Duplicate {
                    window: Window::between(150, 240),
                    link: Link {
                        src: Some(3),
                        dst: None,
                    },
                    p: 0.8,
                })
                .with(FaultSpec::DelaySpike {
                    window: Window::between(120, 200),
                    extra: 3,
                })
        };
        let mut bytes = Vec::new();
        let mut totals = PipelineStats::default();
        for seed in 1..=64 {
            let mut pl = FaultPipeline::new(&plan(seed));
            for now in 0..240 {
                for (src, dst) in (0..=3).flat_map(|s| (0..=3).map(move |d| (s, d))) {
                    match pl.decide(now, src, dst) {
                        SendFate::Drop => bytes.push(0),
                        SendFate::Deliver {
                            copies,
                            extra_delay,
                        } => {
                            bytes.push(1);
                            bytes.extend(copies.to_le_bytes());
                            bytes.extend(extra_delay.to_le_bytes());
                        }
                    }
                }
            }
            let s = pl.stats();
            totals.dropped += s.dropped;
            totals.duplicated += s.duplicated;
            totals.delayed += s.delayed;
        }
        // Every kind left its mark.
        assert!(totals.dropped > 0 && totals.duplicated > 0 && totals.delayed > 0);
        let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(
            (bytes.len(), digest),
            (1_790_584, 0xe98b_5256_4905_2308),
            "{digest:#018x}"
        );
    }

    /// Extra delays add without overflow: two delay spikes of three
    /// billion ticks each, from a plan file that validates, give the
    /// longest delay a fate carries, and the plan runs on both backends
    /// with nothing delivered.
    #[test]
    fn stacked_delay_spikes_saturate() {
        let plan = FaultPlan::from_json(
            r#"{"record":"fault_plan","name":"spikes","seed":1,"proto":{"variant":"binary","tmin":2,"tmax":8,"fix":"full-fix","n":1,"duration":500,"membership":false},"faults":[{"kind":"delay-spike","extra":3000000000},{"kind":"delay-spike","extra":3000000000}]}"#,
        )
        .expect("a valid plan file");
        plan.validate().expect("a valid plan");
        let fate = FaultPipeline::new(&plan).decide(0, 0, 1);
        assert_eq!(
            fate,
            SendFate::Deliver {
                copies: 1,
                extra_delay: u32::MAX
            }
        );
        for backend in [crate::Backend::Sim, crate::Backend::Live] {
            let summary = crate::run_plan(&plan, backend);
            assert!(summary.messages_sent > 0 && summary.messages_delivered == 0);
        }
    }

    #[test]
    fn drops_beat_duplication() {
        // A partitioned message never consumes duplication randomness, but
        // the burst chain still steps (state stays message-indexed).
        let plan = base_plan(2)
            .with(FaultSpec::Partition {
                window: Window::always(),
                groups: vec![vec![0], vec![1]],
            })
            .with(FaultSpec::Duplicate {
                window: Window::always(),
                link: Link::any(),
                p: 1.0,
            });
        let mut pl = FaultPipeline::new(&plan);
        assert_eq!(pl.decide(0, 0, 1), SendFate::Drop);
        assert_eq!(pl.stats().duplicated, 0);
    }
}
