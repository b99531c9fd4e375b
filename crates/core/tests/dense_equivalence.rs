//! Property suite pinning the dense-slot replay path to the legacy
//! per-record-hash semantics, per predictor family.
//!
//! Every predictor is driven by dense `PcId`s (`observe_id`, one slot
//! index per record — the surface the replay engine uses); `Pc`-keyed
//! callers go through the `PcKeyed` adapter, which interns each PC itself
//! (behaviourally identical to the old `HashMap<Pc, _>` tables). These
//! properties feed identical random streams through both paths on
//! independent instances and require identical outcome sequences, final
//! predictions, and static-entry counts — and, for the last-value and
//! stride families, additionally check both against hand-rolled `HashMap`
//! oracles reimplementing the paper's definitions.

use dvp_core::{
    Blending, CounterMode, DelayedPredictor, FcmPredictor, FiniteFcmPredictor,
    FiniteHybridPredictor, FiniteLastValuePredictor, FiniteStridePredictor, HybridPredictor,
    LastValuePredictor, PcKeyed, Predictor, ShiftPredictor, StridePredictor, TableSpec,
    TwoLevelStridePredictor,
};
use dvp_trace::{Pc, PcId, PcInterner, Value};
use proptest::prelude::*;
use std::collections::HashMap;

const CASES: u32 = if cfg!(debug_assertions) { 16 } else { 64 };

/// A random (pc, value) stream over a small PC set (so per-PC state gets
/// real reuse) with semi-repetitive values (so predictions actually hit).
fn arb_stream(max_len: usize) -> impl Strategy<Value = Vec<(Pc, Value)>> {
    prop::collection::vec((0u64..12, 0u64..6), 1..max_len)
        .prop_map(|raw| raw.into_iter().map(|(pc, v)| (Pc(0x400 + 4 * pc), v)).collect())
}

/// Drives `dense` through `observe_id` (interning like a trace would) and
/// `compat` through `PcKeyed::observe`; asserts identical outcome
/// sequences and consistent end states.
fn assert_surfaces_agree<P: Predictor>(mut dense: P, compat: P, stream: &[(Pc, Value)]) {
    let mut compat = PcKeyed::new(compat);
    let mut interner = PcInterner::new();
    for (step, &(pc, value)) in stream.iter().enumerate() {
        let id = interner.intern(pc);
        let d = dense.observe_id(id, pc, value);
        let c = compat.observe(pc, value);
        assert_eq!(d, c, "outcome diverged at step {step} ({pc})");
    }
    assert_eq!(dense.static_entries(), compat.static_entries());
    for (id, pc) in interner.iter() {
        assert_eq!(dense.predict_id(id, pc), compat.predict(pc), "dense read at {pc}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn last_value_dense_matches_compat_and_hashmap_oracle(stream in arb_stream(300)) {
        assert_surfaces_agree(LastValuePredictor::new(), LastValuePredictor::new(), &stream);
        // Oracle: the paper's always-update last-value table as a bare map.
        let mut oracle: HashMap<Pc, Value> = HashMap::new();
        let mut interner = PcInterner::new();
        let mut dense = LastValuePredictor::new();
        for &(pc, value) in &stream {
            let id = interner.intern(pc);
            let expected = oracle.insert(pc, value) == Some(value);
            prop_assert_eq!(dense.observe_id(id, pc, value), expected, "{}", pc);
        }
    }

    #[test]
    fn stride_dense_matches_compat_and_hashmap_oracle(stream in arb_stream(300)) {
        assert_surfaces_agree(StridePredictor::two_delta(), StridePredictor::two_delta(), &stream);
        // Oracle: the two-delta rule (Eickemeyer & Vassiliadis) as a bare
        // map of (last, s1, s2).
        let mut oracle: HashMap<Pc, (Value, Value, Value)> = HashMap::new();
        let mut interner = PcInterner::new();
        let mut dense = StridePredictor::two_delta();
        for &(pc, value) in &stream {
            let id = interner.intern(pc);
            let expected = match oracle.get_mut(&pc) {
                Some((last, s1, s2)) => {
                    let correct = last.wrapping_add(*s2) == value;
                    let delta = value.wrapping_sub(*last);
                    if delta == *s1 {
                        *s2 = delta;
                    }
                    *s1 = delta;
                    *last = value;
                    correct
                }
                None => {
                    oracle.insert(pc, (value, 0, 0));
                    false
                }
            };
            prop_assert_eq!(dense.observe_id(id, pc, value), expected, "{}", pc);
        }
    }

    #[test]
    fn fcm_dense_matches_compat(order in 0usize..4, stream in arb_stream(250)) {
        assert_surfaces_agree(FcmPredictor::new(order), FcmPredictor::new(order), &stream);
    }

    #[test]
    fn fcm_variants_dense_match_compat(stream in arb_stream(200)) {
        for blending in [Blending::LazyExclusion, Blending::Full, Blending::SingleOrder] {
            for mode in [CounterMode::Exact, CounterMode::Saturating { max: 4 }] {
                assert_surfaces_agree(
                    FcmPredictor::with_config(2, blending, mode),
                    FcmPredictor::with_config(2, blending, mode),
                    &stream,
                );
            }
        }
    }

    #[test]
    fn hybrid_dense_matches_compat(stream in arb_stream(250)) {
        assert_surfaces_agree(
            HybridPredictor::stride_fcm(2),
            HybridPredictor::stride_fcm(2),
            &stream,
        );
    }

    #[test]
    fn extension_predictors_dense_match_compat(stream in arb_stream(250)) {
        assert_surfaces_agree(ShiftPredictor::new(), ShiftPredictor::new(), &stream);
        assert_surfaces_agree(
            TwoLevelStridePredictor::new(),
            TwoLevelStridePredictor::new(),
            &stream,
        );
    }

    #[test]
    fn finite_predictors_dense_match_compat(stream in arb_stream(250)) {
        // Finite tables ignore the id by design (PC hashing is the model);
        // the dense surface must still agree record for record.
        let spec = TableSpec::new(4).with_tag_bits(6);
        assert_surfaces_agree(
            FiniteLastValuePredictor::new(spec),
            FiniteLastValuePredictor::new(spec),
            &stream,
        );
        assert_surfaces_agree(
            FiniteStridePredictor::new(spec),
            FiniteStridePredictor::new(spec),
            &stream,
        );
        assert_surfaces_agree(
            FiniteFcmPredictor::new(2, TableSpec::new(4), TableSpec::new(8)),
            FiniteFcmPredictor::new(2, TableSpec::new(4), TableSpec::new(8)),
            &stream,
        );
        assert_surfaces_agree(
            FiniteHybridPredictor::paper_geometry(5),
            FiniteHybridPredictor::paper_geometry(5),
            &stream,
        );
    }

    #[test]
    fn delayed_dense_matches_compat(delay in 0usize..6, stream in arb_stream(250)) {
        assert_surfaces_agree(
            DelayedPredictor::new(StridePredictor::two_delta(), delay),
            DelayedPredictor::new(StridePredictor::two_delta(), delay),
            &stream,
        );
    }

    #[test]
    fn step_equals_predict_then_update(stream in arb_stream(200)) {
        // The fused step must equal the two-call protocol on every family.
        let mut fused = PcKeyed::new(FcmPredictor::new(2));
        let mut split = PcKeyed::new(FcmPredictor::new(2));
        for &(pc, value) in &stream {
            let expected = split.predict(pc);
            split.update(pc, value);
            prop_assert_eq!(fused.step(pc, value), expected);
        }
    }

    #[test]
    fn interner_round_trip_and_collision_freedom(pcs in prop::collection::vec(any::<u64>(), 1..400)) {
        let mut interner = PcInterner::new();
        let ids: Vec<PcId> = pcs.iter().map(|&pc| interner.intern(Pc(pc))).collect();
        // Stable: re-interning yields the same id.
        for (&pc, &id) in pcs.iter().zip(&ids) {
            prop_assert_eq!(interner.intern(Pc(pc)), id);
            prop_assert_eq!(interner.get(Pc(pc)), Some(id));
            prop_assert_eq!(interner.pc(id), Pc(pc));
        }
        // Dense and collision-free: ids are exactly 0..len, one per
        // distinct PC.
        let distinct: std::collections::HashSet<u64> = pcs.iter().copied().collect();
        prop_assert_eq!(interner.len(), distinct.len());
        let mut seen = std::collections::HashSet::new();
        for (id, pc) in interner.iter() {
            prop_assert!(id.index() < interner.len());
            prop_assert!(seen.insert(pc), "pc {} interned twice", pc);
        }
        // And the persisted-table rebuild is the identity.
        let rebuilt = PcInterner::from_pcs(interner.pcs().to_vec()).expect("bijective");
        prop_assert_eq!(&rebuilt, &interner);
    }
}
