//! The dense per-instruction state table shared by every unbounded
//! predictor in this crate.
//!
//! The paper's idealized predictors keep "one table entry per static
//! instruction". [`PcTable`] models that entry set as a flat slot vector
//! indexed by the caller's dense [`PcId`]s, so every access is one
//! bounds-checked vector index and no access hashes a PC.

use dvp_trace::{Pc, PcId};
#[cfg(debug_assertions)]
use std::collections::HashMap;

/// Debug-build check that a dense table only ever sees ids from a single
/// interner: an id keeps naming the PC it first arrived with, and a PC
/// keeps its first id. Release builds carry no state and check nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct OneInterner {
    #[cfg(debug_assertions)]
    pcs: Vec<Option<Pc>>,
    #[cfg(debug_assertions)]
    ids: HashMap<Pc, PcId>,
}

impl OneInterner {
    /// Records (first sight) or checks the `id ↔ pc` association.
    ///
    /// # Panics
    ///
    /// In debug builds, panics when `id` or `pc` was already associated
    /// with something else.
    #[inline]
    pub(crate) fn check(&mut self, id: PcId, pc: Pc) {
        #[cfg(debug_assertions)]
        {
            let index = id.index();
            if index >= self.pcs.len() {
                self.pcs.resize(index + 1, None);
            }
            match self.pcs[index] {
                Some(known) => debug_assert!(
                    known == pc,
                    "dense table driven with ids from two different interners ({id} is {known} \
                     here, caller says {pc})"
                ),
                None => {
                    let known = *self.ids.entry(pc).or_insert(id);
                    debug_assert!(
                        known == id,
                        "dense table driven with ids from two different interners ({pc} is \
                         {known} here, caller says {id})"
                    );
                    self.pcs[index] = Some(pc);
                }
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = (id, pc);
    }
}

/// Dense per-static-instruction storage: `PcId → Option<S>`.
#[derive(Debug, Clone)]
pub(crate) struct PcTable<S> {
    slots: Vec<Option<S>>,
    interner: OneInterner,
}

impl<S> Default for PcTable<S> {
    // Manual impl: the derive would needlessly bound `S: Default`.
    fn default() -> Self {
        PcTable::new()
    }
}

impl<S> PcTable<S> {
    /// An empty table.
    pub(crate) fn new() -> Self {
        PcTable { slots: Vec::new(), interner: OneInterner::default() }
    }

    /// Pre-sizes the slot vector for `n` dense ids.
    pub(crate) fn reserve(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize_with(n, || None);
        }
    }

    /// Read-only slot lookup (the `predict_id` path).
    #[inline]
    pub(crate) fn get(&self, id: PcId) -> Option<&S> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    /// Mutable slot (the `update_id`/`step_id` path), growing the vector
    /// as needed.
    #[inline]
    pub(crate) fn slot_mut(&mut self, id: PcId, pc: Pc) -> &mut Option<S> {
        let index = id.index();
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        self.interner.check(id, pc);
        &mut self.slots[index]
    }

    /// Number of distinct instructions holding state.
    pub(crate) fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_surface_adopts_caller_ids_and_stays_pc_consistent() {
        let mut table: PcTable<u64> = PcTable::new();
        table.reserve(3);
        *table.slot_mut(PcId(2), Pc(0x40)) = Some(5);
        assert_eq!(table.get(PcId(2)), Some(&5));
        assert_eq!(table.get(PcId(0)), None);
        // The same id with the same PC reaches the same slot.
        *table.slot_mut(PcId(2), Pc(0x40)) = Some(6);
        assert_eq!(table.get(PcId(2)), Some(&6));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn dense_access_grows_beyond_reserve() {
        let mut table: PcTable<u64> = PcTable::new();
        *table.slot_mut(PcId(10), Pc(0x10)) = Some(1);
        assert_eq!(table.get(PcId(10)), Some(&1));
        assert_eq!(table.get(PcId(11)), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two different interners")]
    fn two_ids_for_one_pc_panics_in_debug_builds() {
        let mut table: PcTable<u64> = PcTable::new();
        *table.slot_mut(PcId(0), Pc(0x10)) = Some(1);
        let _ = table.slot_mut(PcId(1), Pc(0x10));
    }
}
