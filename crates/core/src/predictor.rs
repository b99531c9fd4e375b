//! The common interface of all value predictors.

use dvp_trace::{Pc, PcId, Value};

/// A data value predictor in the paper's idealized setting.
///
/// A predictor is a map from microarchitectural state to a predicted next
/// value. Following Section 2 of Sazeides & Smith (1997), predictors here:
///
/// * are indexed **only** by the program counter of the instruction being
///   predicted (one table entry per static instruction, no aliasing,
///   unbounded tables);
/// * are updated **immediately** after each prediction with the true value
///   (no update latency).
///
/// # One keying surface
///
/// Every method addresses an instruction by its dense [`PcId`]: the index
/// a [`PcInterner`](dvp_trace::PcInterner) gave the instruction's PC, `0,
/// 1, 2, …` in order of first appearance. That id *is* the paper's
/// per-static-instruction table index, so the unbounded predictors keep
/// their state in id-indexed slot vectors and reach it with one bounds
/// check. The PC travels alongside the id for the predictors that model
/// hardware: the finite, direct-mapped tables hash it (aliasing is the
/// effect they measure) and ignore the id.
///
/// The protocol is: call [`predict_id`](Predictor::predict_id), compare
/// with the actual outcome, then call [`update_id`](Predictor::update_id)
/// with the actual value. [`step_id`](Predictor::step_id) fuses the two;
/// [`observe_id`](Predictor::observe_id) reduces the fused step to a
/// correct/incorrect bit, and [`observe_batch`](Predictor::observe_batch)
/// replays a run of records.
///
/// `predict_id` returns `None` when the predictor has no basis for a
/// prediction (e.g. the first dynamic instance of an instruction). The
/// evaluation counts `None` as an incorrect prediction, exactly as an
/// implementation that must always produce *some* value would at best
/// guess.
///
/// The caller's one obligation is id consistency: all ids passed to one
/// predictor instance must come from a single interner (the engine builds
/// a fresh predictor per replayed trace shard; debug builds of the dense
/// tables assert it). Callers holding bare PCs wrap the predictor in
/// [`PcKeyed`](crate::PcKeyed), which owns the interner and offers
/// `predict`/`update`/`step`/`observe` by PC.
///
/// # Examples
///
/// ```
/// use dvp_core::{LastValuePredictor, Predictor};
/// use dvp_trace::{Pc, PcInterner};
///
/// let mut interner = PcInterner::new();
/// let mut p = LastValuePredictor::new();
/// let pc = Pc(0x400100);
/// let id = interner.intern(pc);
/// assert_eq!(p.predict_id(id, pc), None); // nothing seen yet
/// p.update_id(id, pc, 7);
/// assert_eq!(p.predict_id(id, pc), Some(7));
/// ```
///
/// Predictors are `Send + Sync` so traces can be processed from worker
/// threads and results cached in statics; every table type in this crate
/// (dense slot vectors of plain values) satisfies this automatically.
pub trait Predictor: Send + Sync {
    /// A short human-readable name (used in experiment reports),
    /// e.g. `"l"`, `"s2"`, `"fcm3"`. Names are fixed at construction;
    /// calling this allocates nothing.
    fn name(&self) -> &str;

    /// Number of static instructions (distinct PCs) currently tracked.
    fn static_entries(&self) -> usize;

    /// Pre-sizes dense state for `n` interned ids (a no-op for predictors
    /// without dense state). The replay engine calls this with the trace
    /// interner's length before a replay.
    fn reserve_ids(&mut self, n: usize) {
        let _ = n;
    }

    /// Returns the predicted next value for the instruction `id` (at
    /// `pc`), or `None` when no prediction can be made yet.
    fn predict_id(&self, id: PcId, pc: Pc) -> Option<Value>;

    /// Informs the predictor of the actual value produced by the
    /// instruction `id` (at `pc`). Tables are updated immediately (the
    /// paper's idealization).
    fn update_id(&mut self, id: PcId, pc: Pc, actual: Value);

    /// Fused predict-then-update: returns the prediction that was in force
    /// *before* `actual` was learned.
    ///
    /// This is the inner loop of every experiment in the paper. The
    /// default is the **slow path** — a full `predict_id` followed by a
    /// full `update_id`, walking the table twice; in-crate predictors
    /// override it to locate the instruction's slot once and do both
    /// halves on it.
    fn step_id(&mut self, id: PcId, pc: Pc, actual: Value) -> Option<Value> {
        let prediction = self.predict_id(id, pc);
        self.update_id(id, pc, actual);
        prediction
    }

    /// Predicts, then updates with `actual`; returns whether the prediction
    /// was made and correct. Equivalent to
    /// `self.step_id(id, pc, actual) == Some(actual)`.
    fn observe_id(&mut self, id: PcId, pc: Pc, actual: Value) -> bool {
        self.step_id(id, pc, actual) == Some(actual)
    }

    /// Batched [`observe_id`](Predictor::observe_id): replays a run of
    /// records in order, writing each record's outcome into `correct`.
    ///
    /// Semantically this **is** the per-record loop — the default does
    /// exactly `correct[i] = self.observe_id(ids[i], pcs[i], values[i])`
    /// for each `i` in order, and implementations must preserve that
    /// equivalence bit for bit (the engine's determinism guarantee rests
    /// on batch boundaries being invisible). The point of the method is
    /// dispatch amortization: a replay loop driving a `Box<dyn Predictor>`
    /// pays one virtual call per *chunk* instead of one per record, and
    /// the per-record calls inside the default body dispatch statically on
    /// the concrete type.
    ///
    /// All three slices and `correct` must have equal lengths.
    ///
    /// # Panics
    ///
    /// May panic (via slice indexing) if the slice lengths differ.
    fn observe_batch(&mut self, ids: &[PcId], pcs: &[Pc], values: &[Value], correct: &mut [bool]) {
        assert!(
            ids.len() == pcs.len() && pcs.len() == values.len() && values.len() == correct.len(),
            "observe_batch slice lengths differ"
        );
        for i in 0..ids.len() {
            correct[i] = self.observe_id(ids[i], pcs[i], values[i]);
        }
    }
}

impl<P: Predictor + ?Sized> Predictor for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn static_entries(&self) -> usize {
        (**self).static_entries()
    }

    fn reserve_ids(&mut self, n: usize) {
        (**self).reserve_ids(n)
    }

    fn predict_id(&self, id: PcId, pc: Pc) -> Option<Value> {
        (**self).predict_id(id, pc)
    }

    fn update_id(&mut self, id: PcId, pc: Pc, actual: Value) {
        (**self).update_id(id, pc, actual)
    }

    fn step_id(&mut self, id: PcId, pc: Pc, actual: Value) -> Option<Value> {
        (**self).step_id(id, pc, actual)
    }

    fn observe_id(&mut self, id: PcId, pc: Pc, actual: Value) -> bool {
        (**self).observe_id(id, pc, actual)
    }

    fn observe_batch(&mut self, ids: &[PcId], pcs: &[Pc], values: &[Value], correct: &mut [bool]) {
        (**self).observe_batch(ids, pcs, values, correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LastValuePredictor;

    #[test]
    fn observe_is_predict_then_update() {
        let mut p = LastValuePredictor::new();
        let (id, pc) = (PcId(0), Pc(8));
        assert!(!p.observe_id(id, pc, 3)); // no prior history: incorrect
        assert!(p.observe_id(id, pc, 3)); // last value repeats: correct
        assert!(!p.observe_id(id, pc, 4)); // changed: incorrect
        assert!(p.observe_id(id, pc, 4));
    }

    #[test]
    fn step_returns_the_pre_update_prediction() {
        let mut p = LastValuePredictor::new();
        let (id, pc) = (PcId(0), Pc(8));
        assert_eq!(p.step_id(id, pc, 3), None);
        assert_eq!(p.step_id(id, pc, 4), Some(3));
        assert_eq!(p.step_id(id, pc, 5), Some(4));
    }

    #[test]
    fn observe_batch_matches_the_per_record_loop() {
        let mut batched: Box<dyn Predictor> = Box::new(LastValuePredictor::new());
        let mut looped = LastValuePredictor::new();
        let stream: Vec<(PcId, Pc, Value)> =
            [(0u32, 8u64, 3u64), (1, 16, 4), (0, 8, 3), (0, 8, 5), (1, 16, 4)]
                .into_iter()
                .map(|(id, pc, v)| (PcId(id), Pc(pc), v))
                .collect();
        let ids: Vec<PcId> = stream.iter().map(|r| r.0).collect();
        let pcs: Vec<Pc> = stream.iter().map(|r| r.1).collect();
        let values: Vec<Value> = stream.iter().map(|r| r.2).collect();
        let mut correct = vec![false; stream.len()];
        batched.observe_batch(&ids, &pcs, &values, &mut correct);
        for (i, &(id, pc, v)) in stream.iter().enumerate() {
            assert_eq!(correct[i], looped.observe_id(id, pc, v), "record {i}");
        }
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn observe_batch_rejects_mismatched_lengths() {
        let mut p = LastValuePredictor::new();
        let mut correct = [false; 2];
        p.observe_batch(&[PcId(0)], &[Pc(8)], &[3], &mut correct);
    }

    #[test]
    fn boxed_predictor_delegates() {
        let mut p: Box<dyn Predictor> = Box::new(LastValuePredictor::new());
        let pc = Pc(16);
        p.reserve_ids(4);
        p.update_id(PcId(0), pc, 9);
        assert_eq!(p.predict_id(PcId(0), pc), Some(9));
        assert_eq!(p.name(), "l");
        assert_eq!(p.static_entries(), 1);
        assert_eq!(p.step_id(PcId(0), pc, 9), Some(9));
    }
}
