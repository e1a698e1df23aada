//! Property tests for the n ≥ 2 scale-campaign machinery: the composed
//! symmetry × POR quotient never changes a verdict, and the
//! dataflow-sized packed codec round-trips every reachable state.
//!
//! The deterministic smoke grid (`hb_analyze --sym-check`, the
//! `hb_verify::tables` scale tests) pins a handful of cells; these
//! tests walk random small corners of variant × fix × n ∈ {2, 3}
//! space. Parameters stay tiny so the *full* exploration — the oracle —
//! remains affordable.

use accelerated_heartbeat::core::{FixLevel, Params, Variant};
use accelerated_heartbeat::mck::packed::{BitReader, BitWriter, StateCodec};
use accelerated_heartbeat::mck::symmetry::Symmetric;
use accelerated_heartbeat::mck::{CheckOutcome, Checker, Model, ModelExt, Reduced};
use accelerated_heartbeat::verify::por::HbAmpleOracle;
use accelerated_heartbeat::verify::requirements::{build_model, error_predicate, Requirement};
use accelerated_heartbeat::verify::symmetry::certified_canonical;
use accelerated_heartbeat::verify::HbCodec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// S3 part one: the certified sort-key quotient composed over the
    /// ample-set-reduced model agrees with the unreduced checker on
    /// every verdict, for the multi-party variants at n ∈ {2, 3},
    /// across fix levels and fault-free requirements, with staggered
    /// starts in play.
    #[test]
    fn composed_symmetry_por_agrees_with_the_full_checker(
        variant in prop::sample::select(vec![
            Variant::Static,
            Variant::Expanding,
            Variant::Dynamic,
        ]),
        fix in prop::sample::select(FixLevel::ALL.to_vec()),
        req in prop::sample::select(vec![Requirement::R2, Requirement::R3]),
        n in 2usize..=3,
        tmin in 1u32..=2,
        extra in 0u32..=2,
        stagger in any::<bool>(),
    ) {
        let params = Params::new(tmin, tmin + extra).expect("valid params");
        let model = build_model(variant, params, fix, n, req).stagger_starts(stagger);
        let pred = |s: &accelerated_heartbeat::verify::HbState| !error_predicate(&model, req)(s);

        let full_holds = matches!(
            Checker::new(&model).check_invariant(pred),
            CheckOutcome::Holds(_)
        );

        let canon = certified_canonical(&model).expect("plain machines are certified");
        let red = Reduced::new(&model, HbAmpleOracle::new(&model, req));
        let sym = Symmetric::new(&red, canon);
        let out = Checker::new(&sym).threads(1).check_invariant(pred);
        let composed_holds = matches!(out, CheckOutcome::Holds(_));

        // The pipeline is the same search with its expansions on
        // workers, so it composes with the wrappers and matches the
        // sequential loop to the counter.
        let par = Checker::new(&sym).threads(2).check_invariant(pred);
        prop_assert!(
            par.holds() == composed_holds && par.stats() == out.stats(),
            "two workers {:?} != sequential {:?} over sym+por",
            par.stats(),
            out.stats(),
        );

        prop_assert!(
            full_holds == composed_holds,
            "verdict divergence on {}/{}-{}/{:?}/{:?}/n={} stagger={}: full={} sym+por={}",
            variant.name(),
            params.tmin(),
            params.tmax(),
            fix,
            req,
            n,
            stagger,
            full_holds,
            composed_holds,
        );
    }

    /// S3 part two: the bit-packed codec, with field widths taken from
    /// the dataflow-proven ranges, encodes and decodes every state of a
    /// random walk through the real model — including fault actions,
    /// leaves, and R1's ghost monitors — without loss.
    #[test]
    fn packed_codec_round_trips_random_reachable_states(
        variant in prop::sample::select(Variant::ALL.to_vec()),
        fix in prop::sample::select(FixLevel::ALL.to_vec()),
        req in prop::sample::select(Requirement::ALL.to_vec()),
        n in 1usize..=3,
        tmin in 1u32..=2,
        extra in 0u32..=2,
        picks in prop::collection::vec(0usize..64, 40..41),
        init_pick in 0usize..8,
    ) {
        let n = if variant.is_two_process() { 1 } else { n };
        let params = Params::new(tmin, tmin + extra).expect("valid params");
        let model = build_model(variant, params, fix, n, req).stagger_starts(true);
        let codec = HbCodec::for_model(&model);

        let inits = model.initial_states();
        let mut state = inits[init_pick % inits.len()].clone();
        let mut writer = BitWriter::new();
        for pick in picks {
            writer.clear();
            codec.encode(&state, &mut writer);
            let decoded = codec.decode(&mut BitReader::new(writer.bytes()));
            prop_assert!(
                decoded == state,
                "codec round-trip diverged on {}/{:?}/{:?}/n={}",
                variant.name(), fix, req, n
            );
            let succs = model.successors(&state);
            if succs.is_empty() {
                break;
            }
            state = succs[pick % succs.len()].1.clone();
        }
    }
}
