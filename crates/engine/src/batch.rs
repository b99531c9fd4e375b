//! Chunk-granular batched replay driving.
//!
//! The replay driver's job kernel funnels records into
//! [`dvp_core::Predictor::observe_batch`] through this scratch buffer, so
//! the per-record cost is a few vector writes and the virtual predictor
//! dispatch amortizes over a chunk. Batch boundaries are invisible in the
//! tallies: `observe_batch` is bit-for-bit the per-record loop, so *any*
//! slicing of a record stream produces identical results.

use dvp_core::{AccuracyTracker, Predictor};
use dvp_trace::{Pc, PcId, TraceRecord, Value};

/// Reusable structure-of-arrays buffers for batched replay of parallel
/// `(records, ids)` slices.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    pcs: Vec<Pc>,
    values: Vec<Value>,
    correct: Vec<bool>,
}

impl BatchScratch {
    pub(crate) fn new() -> Self {
        BatchScratch::default()
    }

    /// Replays parallel `(records, ids)` slices through one
    /// `observe_batch` call, tallying every outcome into `tracker`.
    pub(crate) fn run_slice(
        &mut self,
        predictor: &mut dyn Predictor,
        tracker: &mut AccuracyTracker,
        records: &[TraceRecord],
        ids: &[PcId],
    ) {
        self.observe_slice(predictor, records, ids);
        for (rec, &ok) in records.iter().zip(&self.correct) {
            tracker.record(rec.category, ok);
        }
    }

    /// Replays parallel `(records, ids)` slices through one
    /// `observe_batch` call, discarding the outcomes — the warmup shape,
    /// where the predictor must see the records but nothing is tallied.
    pub(crate) fn observe_slice(
        &mut self,
        predictor: &mut dyn Predictor,
        records: &[TraceRecord],
        ids: &[PcId],
    ) {
        self.pcs.clear();
        self.pcs.extend(records.iter().map(|r| r.pc));
        self.values.clear();
        self.values.extend(records.iter().map(|r| r.value));
        self.correct.clear();
        self.correct.resize(records.len(), false);
        predictor.observe_batch(ids, &self.pcs, &self.values, &mut self.correct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_core::PredictorConfig;
    use dvp_trace::{InstrCategory, PcInterner};

    fn stream() -> Vec<TraceRecord> {
        (0..500u64)
            .map(|i| {
                let cat = if i % 4 == 0 { InstrCategory::Loads } else { InstrCategory::Logic };
                TraceRecord::new(Pc(8 * (i % 7)), cat, (i / 7) % 5)
            })
            .collect()
    }

    #[test]
    fn run_slice_matches_per_record_loop_for_every_config() {
        let records = stream();
        let mut interner = PcInterner::new();
        let ids: Vec<PcId> = records.iter().map(|r| interner.intern(r.pc)).collect();
        for config in PredictorConfig::paper_bank() {
            let mut reference = config.build();
            let mut want = AccuracyTracker::new();
            for (rec, &id) in records.iter().zip(&ids) {
                want.record(rec.category, reference.observe_id(id, rec.pc, rec.value));
            }
            for chunk in [3usize, 64, 500] {
                let mut predictor = config.build();
                let mut got = AccuracyTracker::new();
                let mut scratch = BatchScratch::new();
                for (recs, idch) in records.chunks(chunk).zip(ids.chunks(chunk)) {
                    scratch.run_slice(&mut predictor, &mut got, recs, idch);
                }
                for cat in InstrCategory::ALL.into_iter().map(Some).chain([None]) {
                    assert_eq!(
                        got.correct(cat),
                        want.correct(cat),
                        "{} chunk {chunk} {cat:?}",
                        config.name()
                    );
                    assert_eq!(got.predicted(cat), want.predicted(cat));
                }
            }
        }
    }
}
