//! The `Pc`-keyed adapter over the dense [`Predictor`] surface.
//!
//! The replay engine drives predictors by the dense ids of an interned
//! trace. Code that holds bare PCs — sequence studies, analytic
//! experiments, examples, unit tests — wraps the predictor in
//! [`PcKeyed`], which interns each PC on first update and forwards to the
//! id-keyed methods, exactly as
//! [`PredictorSet::observe`](crate::PredictorSet::observe) does for a set.

use crate::Predictor;
use dvp_trace::{Pc, PcId, PcInterner, Value};

/// A predictor addressed by [`Pc`]: owns the [`PcInterner`] that turns
/// each PC into the dense id the wrapped [`Predictor`] is keyed by.
///
/// [`update`](PcKeyed::update), [`step`](PcKeyed::step) and
/// [`observe`](PcKeyed::observe) intern the PC (ids in order of first
/// appearance). [`predict`](PcKeyed::predict) never interns: a PC that was
/// never updated is passed as the next free id, which no slot holds yet.
/// So a dense table answers `None` for it, while a finite, PC-hashed table
/// still reports whatever its aliased slot holds.
///
/// # Examples
///
/// ```
/// use dvp_core::{PcKeyed, StridePredictor};
/// use dvp_trace::Pc;
///
/// let mut p = PcKeyed::new(StridePredictor::two_delta());
/// let pc = Pc(0x80);
/// for v in [10, 20, 30] {
///     p.update(pc, v);
/// }
/// assert_eq!(p.predict(pc), Some(40));
/// assert_eq!(p.predict(Pc(0x84)), None); // never seen
/// assert!(p.observe(pc, 40));
/// ```
#[derive(Debug, Clone)]
pub struct PcKeyed<P> {
    inner: P,
    interner: PcInterner,
}

impl<P: Predictor> PcKeyed<P> {
    /// Wraps `inner`, which must not have been driven by other ids yet.
    #[must_use]
    pub fn new(inner: P) -> Self {
        PcKeyed { inner, interner: PcInterner::new() }
    }

    /// Returns the predicted next value for the instruction at `pc`, or
    /// `None` when no prediction can be made yet.
    #[must_use]
    pub fn predict(&self, pc: Pc) -> Option<Value> {
        self.inner.predict_id(self.id_or_next(pc), pc)
    }

    /// Informs the predictor of the actual value produced at `pc`.
    pub fn update(&mut self, pc: Pc, actual: Value) {
        let id = self.interner.intern(pc);
        self.inner.update_id(id, pc, actual);
    }

    /// Fused predict-then-update: returns the prediction that was in force
    /// before `actual` was learned.
    pub fn step(&mut self, pc: Pc, actual: Value) -> Option<Value> {
        let id = self.interner.intern(pc);
        self.inner.step_id(id, pc, actual)
    }

    /// Predicts, then updates with `actual`; returns whether the
    /// prediction was made and correct.
    pub fn observe(&mut self, pc: Pc, actual: Value) -> bool {
        let id = self.interner.intern(pc);
        self.inner.observe_id(id, pc, actual)
    }

    /// The interner mapping this adapter's PCs to ids.
    #[must_use]
    pub fn interner(&self) -> &PcInterner {
        &self.interner
    }

    /// The wrapped predictor's name.
    #[must_use]
    pub fn name(&self) -> &str {
        self.inner.name()
    }

    /// Number of static instructions the wrapped predictor tracks.
    #[must_use]
    pub fn static_entries(&self) -> usize {
        self.inner.static_entries()
    }

    /// Shared access to the wrapped predictor.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped predictor, for its own inherent
    /// methods; feeding it records directly would bypass the interner.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Unwraps the predictor, dropping the interner.
    #[must_use]
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// `pc`'s id, or the id it would get next without interning it.
    fn id_or_next(&self, pc: Pc) -> PcId {
        self.interner.get(pc).unwrap_or_else(|| {
            PcId(u32::try_from(self.interner.len()).expect("more than u32::MAX PCs"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FcmPredictor, LastValuePredictor};

    #[test]
    fn ids_follow_first_update() {
        let mut p = PcKeyed::new(LastValuePredictor::new());
        assert_eq!(p.predict(Pc(0x40)), None);
        assert!(p.interner().is_empty(), "predict must not intern");
        p.update(Pc(0x40), 1);
        p.update(Pc(0x20), 2);
        assert_eq!(p.interner().get(Pc(0x40)), Some(PcId(0)));
        assert_eq!(p.interner().get(Pc(0x20)), Some(PcId(1)));
        assert_eq!(p.inner().predict_id(PcId(1), Pc(0x20)), Some(2));
        assert_eq!(p.static_entries(), 2);
    }

    #[test]
    fn unseen_pc_after_reserve_predicts_nothing() {
        // Reserved but untouched slots hold no state, so the next free id
        // still answers `None` on dense tables.
        let mut fcm = FcmPredictor::new(2);
        fcm.reserve_ids(8);
        let mut p = PcKeyed::new(fcm);
        p.update(Pc(0x10), 5);
        p.update(Pc(0x10), 5);
        assert_eq!(p.predict(Pc(0x10)), Some(5));
        assert_eq!(p.predict(Pc(0x14)), None);
    }
}
