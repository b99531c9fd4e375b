//! Per-instruction-type hybrid prediction.
//!
//! Section 4.1 of the paper observes that computational predictability
//! varies with instruction type ("its performance can be further improved
//! if the prediction function matches the functionality of the predicted
//! instruction") and Section 4.2 adds that "for non-add/subtract
//! instructions the contribution of stride prediction is smaller... this
//! suggests a hybrid predictor based on instruction types". This module
//! provides that design.

use crate::{FcmPredictor, Predictor, ShiftPredictor, StridePredictor};
use dvp_trace::{InstrCategory, PcId, PcInterner, TraceRecord};

/// A predictor that may use the full trace record (including the
/// instruction category), not just the PC.
///
/// Every plain [`Predictor`] is a `RecordPredictor` that ignores the
/// category, so the two kinds compose freely in experiment harnesses.
pub trait RecordPredictor {
    /// Predicts the record's value, then updates tables with it; returns
    /// whether the prediction was correct. `id` is `rec.pc`'s dense id
    /// under the caller's interner.
    fn observe_record_id(&mut self, id: PcId, rec: &TraceRecord) -> bool;

    /// Short display name.
    fn record_name(&self) -> String;
}

impl<P: Predictor> RecordPredictor for P {
    fn observe_record_id(&mut self, id: PcId, rec: &TraceRecord) -> bool {
        self.observe_id(id, rec.pc, rec.value)
    }

    fn record_name(&self) -> String {
        self.name().to_owned()
    }
}

/// A hybrid that routes each instruction to a component chosen by its
/// category: the prediction function matches the instruction's
/// functionality.
///
/// The default configuration implements the paper's suggestions directly:
/// stride prediction for add/subtract results, a shift-matched
/// computational predictor for shifts, and context-based (FCM) prediction
/// for everything else.
///
/// # Examples
///
/// ```
/// use dvp_core::{RecordPredictor, TypedHybridPredictor};
/// use dvp_trace::{InstrCategory, Pc, PcId, TraceRecord};
///
/// let mut hybrid = TypedHybridPredictor::paper_suggestion(2);
/// let mut correct = 0;
/// for i in 0..50u64 {
///     // An induction variable (the only instruction, dense id 0): routed
///     // to the stride component.
///     let rec = TraceRecord::new(Pc(0x10), InstrCategory::AddSub, 4 * i);
///     correct += u32::from(hybrid.observe_record_id(PcId(0), &rec));
/// }
/// assert!(correct >= 45);
/// ```
pub struct TypedHybridPredictor {
    components: [Box<dyn Predictor>; InstrCategory::ALL.len()],
}

impl std::fmt::Debug for TypedHybridPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self.components.iter().map(|c| c.name().to_owned()).collect();
        f.debug_struct("TypedHybridPredictor").field("components", &names).finish()
    }
}

impl TypedHybridPredictor {
    /// Builds a typed hybrid from one component per category, in
    /// [`InstrCategory::ALL`] order.
    #[must_use]
    pub fn from_components(components: [Box<dyn Predictor>; 8]) -> Self {
        TypedHybridPredictor { components }
    }

    /// The configuration the paper's Section 4.1 discussion implies:
    ///
    /// | category | component |
    /// |---|---|
    /// | AddSub | two-delta stride (operation matches) |
    /// | Shift | shift-matched computational predictor |
    /// | everything else | order-`fcm_order` FCM |
    #[must_use]
    pub fn paper_suggestion(fcm_order: usize) -> Self {
        let component = |cat: InstrCategory| -> Box<dyn Predictor> {
            match cat {
                InstrCategory::AddSub => Box::new(StridePredictor::two_delta()),
                InstrCategory::Shift => Box::new(ShiftPredictor::new()),
                _ => Box::new(FcmPredictor::new(fcm_order)),
            }
        };
        TypedHybridPredictor { components: InstrCategory::ALL.map(component) }
    }

    /// The component serving `category`.
    #[must_use]
    pub fn component(&self, category: InstrCategory) -> &dyn Predictor {
        self.components[category.index()].as_ref()
    }
}

impl RecordPredictor for TypedHybridPredictor {
    fn observe_record_id(&mut self, id: PcId, rec: &TraceRecord) -> bool {
        // Components never share a PC across categories (a static
        // instruction has one category), so trace-wide dense ids are
        // consistent within each component's slot vector.
        self.components[rec.category.index()].observe_id(id, rec.pc, rec.value)
    }

    fn record_name(&self) -> String {
        "typed-hybrid".to_owned()
    }
}

/// Runs a whole trace through a [`RecordPredictor`]; returns
/// `(correct, total)`. PCs are interned in order of first appearance.
pub fn run_trace_records<'a, P, I>(predictor: &mut P, records: I) -> (u64, u64)
where
    P: RecordPredictor + ?Sized,
    I: IntoIterator<Item = &'a TraceRecord>,
{
    let mut interner = PcInterner::new();
    let mut correct = 0u64;
    let mut total = 0u64;
    for rec in records {
        if predictor.observe_record_id(interner.intern(rec.pc), rec) {
            correct += 1;
        }
        total += 1;
    }
    (correct, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LastValuePredictor;
    use dvp_trace::{Pc, Value};

    fn rec(pc: u64, cat: InstrCategory, value: Value) -> TraceRecord {
        TraceRecord::new(Pc(pc), cat, value)
    }

    #[test]
    fn plain_predictors_are_record_predictors() {
        let mut p = LastValuePredictor::new();
        let r = rec(4, InstrCategory::Loads, 9);
        assert!(!p.observe_record_id(PcId(0), &r));
        assert!(p.observe_record_id(PcId(0), &r));
        assert_eq!(p.record_name(), "l");
    }

    #[test]
    fn routes_by_category() {
        let mut hybrid = TypedHybridPredictor::paper_suggestion(2);
        // Same PC appears under two categories (cannot happen in a real
        // trace, but isolates the routing): each component sees only its
        // own stream.
        let id = PcId(0);
        for i in 0..10u64 {
            hybrid.observe_record_id(id, &rec(4, InstrCategory::AddSub, i));
            hybrid.observe_record_id(id, &rec(4, InstrCategory::Logic, 77));
        }
        assert!(hybrid.observe_record_id(id, &rec(4, InstrCategory::AddSub, 10)));
        assert!(hybrid.observe_record_id(id, &rec(4, InstrCategory::Logic, 77)));
    }

    #[test]
    fn shift_component_handles_geometric_shift_results() {
        let mut hybrid = TypedHybridPredictor::paper_suggestion(1);
        let mut correct = 0;
        for i in 0..20u64 {
            let r = rec(8, InstrCategory::Shift, 1u64 << (i % 16));
            correct += u64::from(hybrid.observe_record_id(PcId(0), &r));
        }
        // The shift component learns doubling quickly; the wrap back to 1
        // after 1<<15 costs at most a couple of misses.
        assert!(correct >= 12, "{correct}");
    }

    #[test]
    fn beats_uniform_stride_on_mixed_streams() {
        // A stream where AddSub strides, Logic repeats a small set, and
        // Shift doubles: the typed hybrid should beat uniform stride.
        let mut records = Vec::new();
        for i in 0..300u64 {
            records.push(rec(0x10, InstrCategory::AddSub, 3 * i));
            records.push(rec(0x20, InstrCategory::Logic, [5u64, 9, 12][i as usize % 3]));
            records.push(rec(0x30, InstrCategory::Shift, 1u64 << (i % 12)));
        }
        let mut typed = TypedHybridPredictor::paper_suggestion(2);
        let (typed_correct, total) = run_trace_records(&mut typed, records.iter());
        let mut stride = StridePredictor::two_delta();
        let (stride_correct, _) = run_trace_records(&mut stride, records.iter());
        assert!(
            typed_correct > stride_correct,
            "typed {typed_correct} vs stride {stride_correct} of {total}"
        );
    }

    #[test]
    fn component_accessor_and_debug() {
        let hybrid = TypedHybridPredictor::paper_suggestion(3);
        assert_eq!(hybrid.component(InstrCategory::AddSub).name(), "s2");
        assert_eq!(hybrid.component(InstrCategory::Shift).name(), "shift");
        assert_eq!(hybrid.component(InstrCategory::Loads).name(), "fcm3");
        assert!(format!("{hybrid:?}").contains("typed") || format!("{hybrid:?}").contains("s2"));
        assert_eq!(hybrid.record_name(), "typed-hybrid");
    }

    #[test]
    fn from_components_preserves_order() {
        let components: [Box<dyn Predictor>; 8] =
            InstrCategory::ALL.map(|_| Box::new(LastValuePredictor::new()) as Box<dyn Predictor>);
        let hybrid = TypedHybridPredictor::from_components(components);
        for cat in InstrCategory::ALL {
            assert_eq!(hybrid.component(cat).name(), "l");
        }
    }
}
