//! Confidence estimation for value predictions.
//!
//! The paper studies prediction *accuracy* in isolation; any real use of
//! value prediction (its Section 5 "future research") must decide *when to
//! speculate*, because a misprediction costs a squash. The standard
//! mechanism — also used by the hysteresis variants in Section 2.1 — is a
//! per-PC saturating confidence counter: predictions are only *used* when
//! the counter is at or above a threshold.
//!
//! [`ConfidentPredictor`] wraps any [`Predictor`] with such a filter and
//! tracks the resulting coverage/accuracy trade-off.

use crate::Predictor;
use dvp_trace::{Pc, PcId, Value};
use std::collections::HashMap;

/// Outcome of one confident observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeculationOutcome {
    /// The predictor offered a value and confidence was high: speculate.
    /// The payload says whether the speculation was correct.
    Speculated {
        /// Whether the predicted value matched the actual one.
        correct: bool,
    },
    /// Confidence was below threshold (or no prediction existed): do not
    /// speculate.
    Suppressed,
}

/// A predictor wrapped with per-PC saturating confidence counters.
///
/// The counter increments on every correct underlying prediction and
/// decrements (by `penalty`) on every incorrect one; predictions are
/// exposed only when the counter is at least `threshold`.
///
/// # Examples
///
/// ```
/// use dvp_core::{ConfidentPredictor, LastValuePredictor};
/// use dvp_trace::{Pc, PcId};
///
/// let mut p = ConfidentPredictor::new(LastValuePredictor::new(), 4, 2, 2);
/// let (id, pc) = (PcId(0), Pc(0x60)); // the only instruction: dense id 0
/// // A noisy PC: alternating values never build confidence, so the
/// // wrapped predictor stays quiet instead of being wrong half the time.
/// for &v in [1u64, 2].iter().cycle().take(20) {
///     p.observe_speculative(id, pc, v);
/// }
/// assert_eq!(p.coverage(), 0.0);
/// ```
#[derive(Debug)]
pub struct ConfidentPredictor<P> {
    inner: P,
    name: String,
    counters: HashMap<Pc, u8>,
    max: u8,
    threshold: u8,
    penalty: u8,
    speculated: u64,
    speculated_correct: u64,
    total: u64,
}

impl<P: Predictor> ConfidentPredictor<P> {
    /// Wraps `inner` with counters saturating at `max`, exposing
    /// predictions at `threshold`, and decrementing by `penalty` on a miss.
    ///
    /// # Panics
    ///
    /// Panics if `threshold > max` or `max == 0`.
    #[must_use]
    pub fn new(inner: P, max: u8, threshold: u8, penalty: u8) -> Self {
        assert!(max > 0 && threshold <= max, "need 0 < threshold <= max");
        let name = format!("conf{threshold}of{max}({})", inner.name());
        ConfidentPredictor {
            inner,
            name,
            counters: HashMap::new(),
            max,
            threshold,
            penalty,
            speculated: 0,
            speculated_correct: 0,
            total: 0,
        }
    }

    /// The wrapped predictor.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Confidence counter for `pc` (0 if unseen).
    #[must_use]
    pub fn confidence(&self, pc: Pc) -> u8 {
        self.counters.get(&pc).copied().unwrap_or(0)
    }

    /// One full speculation step for the instruction `id` at `pc`: decide,
    /// check, update. The confidence counters are keyed by `pc`; `id` is
    /// passed through to the wrapped predictor.
    pub fn observe_speculative(&mut self, id: PcId, pc: Pc, actual: Value) -> SpeculationOutcome {
        self.total += 1;
        let raw = self.inner.predict_id(id, pc);
        let confident = self.confidence(pc) >= self.threshold;
        let outcome = match raw {
            Some(value) if confident => {
                let correct = value == actual;
                self.speculated += 1;
                self.speculated_correct += u64::from(correct);
                SpeculationOutcome::Speculated { correct }
            }
            _ => SpeculationOutcome::Suppressed,
        };
        // Confidence tracks the *underlying* predictor's correctness so it
        // can warm up while suppressed.
        if let Some(value) = raw {
            let counter = self.counters.entry(pc).or_insert(0);
            if value == actual {
                *counter = counter.saturating_add(1).min(self.max);
            } else {
                *counter = counter.saturating_sub(self.penalty);
            }
        }
        self.inner.update_id(id, pc, actual);
        outcome
    }

    /// Fraction of observations on which the wrapper chose to speculate.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.speculated as f64 / self.total as f64
        }
    }

    /// Accuracy *of the speculated subset* (1.0 when nothing speculated).
    #[must_use]
    pub fn speculated_accuracy(&self) -> f64 {
        if self.speculated == 0 {
            1.0
        } else {
            self.speculated_correct as f64 / self.speculated as f64
        }
    }
}

impl<P: Predictor> Predictor for ConfidentPredictor<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn static_entries(&self) -> usize {
        self.inner.static_entries()
    }

    /// Exposes a prediction only above the confidence threshold.
    fn predict_id(&self, id: PcId, pc: Pc) -> Option<Value> {
        if self.confidence(pc) >= self.threshold {
            self.inner.predict_id(id, pc)
        } else {
            None
        }
    }

    fn update_id(&mut self, id: PcId, pc: Pc, actual: Value) {
        // Route through the speculation bookkeeping so the two APIs agree.
        let _ = self.observe_speculative(id, pc, actual);
        self.total -= 1; // observe_id() callers count totals themselves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LastValuePredictor, StridePredictor};

    const ID: PcId = PcId(0);
    const PC: Pc = Pc(0x900);

    #[test]
    fn confidence_gates_predictions() {
        let mut p = ConfidentPredictor::new(LastValuePredictor::new(), 4, 2, 2);
        p.observe_speculative(ID, PC, 7); // no prediction yet
        assert_eq!(p.predict_id(ID, PC), None, "confidence 0 suppresses");
        p.observe_speculative(ID, PC, 7); // underlying correct -> conf 1
        assert_eq!(p.predict_id(ID, PC), None);
        p.observe_speculative(ID, PC, 7); // conf 2 == threshold
        assert_eq!(p.predict_id(ID, PC), Some(7));
    }

    #[test]
    fn noisy_streams_are_suppressed_entirely() {
        let mut p = ConfidentPredictor::new(LastValuePredictor::new(), 4, 2, 2);
        for &v in [1u64, 2, 3].iter().cycle().take(60) {
            p.observe_speculative(ID, PC, v);
        }
        assert_eq!(p.coverage(), 0.0);
        assert_eq!(p.speculated_accuracy(), 1.0, "vacuous accuracy when suppressed");
    }

    #[test]
    fn speculated_accuracy_exceeds_raw_accuracy_on_mixed_stream() {
        // 70% constant, 30% noise: raw last-value accuracy ~ 70%, but the
        // confident subset should be much cleaner.
        let values: Vec<u64> =
            (0..400).map(|i| if i % 10 < 7 { 5 } else { 1000 + i as u64 }).collect();
        let mut raw = LastValuePredictor::new();
        let mut raw_correct = 0u64;
        for &v in &values {
            raw_correct += u64::from(raw.observe_id(ID, PC, v));
        }
        let raw_acc = raw_correct as f64 / values.len() as f64;

        let mut conf = ConfidentPredictor::new(LastValuePredictor::new(), 8, 4, 4);
        for &v in &values {
            conf.observe_speculative(ID, PC, v);
        }
        assert!(conf.coverage() > 0.1, "coverage {}", conf.coverage());
        assert!(
            conf.speculated_accuracy() > raw_acc + 0.05,
            "confident subset {:.2} should beat raw {:.2}",
            conf.speculated_accuracy(),
            raw_acc
        );
    }

    #[test]
    fn penalty_resets_confidence_fast() {
        let mut p = ConfidentPredictor::new(LastValuePredictor::new(), 4, 2, 4);
        for _ in 0..6 {
            p.observe_speculative(ID, PC, 9);
        }
        assert!(p.confidence(PC) >= 2);
        p.observe_speculative(ID, PC, 10); // one miss wipes confidence
        assert_eq!(p.confidence(PC), 0);
    }

    #[test]
    fn works_with_any_inner_predictor() {
        let mut p = ConfidentPredictor::new(StridePredictor::two_delta(), 4, 1, 1);
        for v in (0..20u64).map(|i| 10 * i) {
            p.observe_speculative(ID, PC, v);
        }
        assert_eq!(p.predict_id(ID, PC), Some(200));
        assert!(p.name().starts_with("conf1of4(s2"));
        assert_eq!(p.static_entries(), 1);
        assert!(p.inner().predict_id(ID, PC).is_some());
    }

    #[test]
    fn predictor_impl_counts_consistently() {
        let mut p = ConfidentPredictor::new(LastValuePredictor::new(), 4, 1, 1);
        let mut correct = 0;
        for _ in 0..10 {
            correct += u32::from(p.observe_id(ID, PC, 3));
        }
        assert!(correct >= 8);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_bad_threshold() {
        let _ = ConfidentPredictor::new(LastValuePredictor::new(), 2, 3, 1);
    }
}
