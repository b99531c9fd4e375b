//! The replay driver: every public replay entry point is a thin wrapper
//! over one job kernel ([`Job::replay`]) fed by one of two chunk sources.
//!
//! A replay is a grid of independent jobs, one per (trace, configuration,
//! unit); the [`Tally`] policy decides what a unit is and which records
//! land in which slot:
//!
//! | policy | unit | slots | a job tallies |
//! |---|---|---|---|
//! | [`Tally::Full`] | PC shard | 1 | every record of its shard |
//! | [`Tally::Warm`] | PC shard | one per phase | its shard's records inside each phase window |
//! | [`Tally::Cold`] | phase | one per phase | its own window, after an untallied warmup prefix |
//!
//! Slots hold exact integer counts, so one [`merge`] sums the unit
//! tallies of every policy independently of which worker ran which job.
//! The **resident** source replays pre-sharded traces with pre-interned
//! ids on [`par_map`](crate::par_map); the **streaming** source decodes
//! chunks into a bounded window ([`decode_ahead`]), where ids cannot be
//! known up front, so every job interns PCs privately.

use crate::batch::BatchScratch;
use crate::pool::decode_ahead;
use crate::shared::{shard_of_id, shard_of_pc};
use crate::{ReplayEngine, SharedTrace};
use dvp_core::{AccuracyTracker, Predictor, PredictorConfig};
use dvp_trace::io::{v2, TraceIoError};
use dvp_trace::{PcId, PcInterner, PhasePlan, TraceRecord};
use std::io::Read;
use std::ops::Range;

/// The positions of a whole trace.
const WHOLE: (u64, u64) = (0, u64::MAX);

/// What a replay tallies, and therefore what its jobs' units are.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Tally<'a> {
    /// Every record, into one slot. Units are PC shards.
    Full,
    /// Functional warming: units are PC shards whose predictors observe
    /// every record, tallying those inside a phase window into that
    /// phase's slot.
    Warm(&'a PhasePlan),
    /// Cold sampling: units are phases; each job observes its phase's
    /// warmup prefix untallied, then tallies its window.
    Cold(&'a PhasePlan),
}

impl<'a> Tally<'a> {
    fn plan(self) -> Option<&'a PhasePlan> {
        match self {
            Tally::Full => None,
            Tally::Warm(plan) | Tally::Cold(plan) => Some(plan),
        }
    }

    fn slots(self) -> usize {
        self.plan().map_or(1, |plan| plan.phases.len())
    }

    /// Units per (trace, configuration) cell.
    fn units(self, shards: usize) -> usize {
        match self {
            Tally::Cold(plan) => plan.phases.len(),
            _ => shards,
        }
    }

    /// The trace positions unit `unit` replays.
    fn span(self, unit: usize) -> (u64, u64) {
        match self {
            Tally::Cold(plan) => {
                let phase = &plan.phases[unit];
                (phase.start.saturating_sub(plan.warmup_records), phase.end)
            }
            _ => WHOLE,
        }
    }

    /// The trace positions unit `unit` tallies into each slot (empty for
    /// the slots it never writes).
    fn windows(self, unit: usize) -> Vec<(u64, u64)> {
        match self {
            Tally::Full => vec![WHOLE],
            Tally::Warm(plan) => plan.phases.iter().map(|p| (p.start, p.end)).collect(),
            Tally::Cold(plan) => plan
                .phases
                .iter()
                .enumerate()
                .map(|(i, p)| if i == unit { (p.start, p.end) } else { (0, 0) })
                .collect(),
        }
    }
}

/// Checks that `plan` is valid and was built for a `total`-record trace.
fn check_plan(plan: &PhasePlan, total: u64) -> Result<(), TraceIoError> {
    plan.validate().map_err(|e| TraceIoError::Format { message: e.to_string() })?;
    if plan.total_records == total {
        return Ok(());
    }
    Err(TraceIoError::Format {
        message: format!(
            "phase plan covers {} records but the trace holds {total} \
             (it was built for a different trace)",
            plan.total_records
        ),
    })
}

/// The indices of a `len`-record chunk starting at trace position `first`
/// that fall inside `span`.
fn clip((lo, hi): (u64, u64), first: u64, len: usize) -> Range<usize> {
    let end = first + len as u64;
    (lo.clamp(first, end) - first) as usize..(hi.clamp(first, end) - first) as usize
}

/// One replay job: a private predictor and one tally slot per window.
struct Job {
    predictor: Box<dyn Predictor>,
    windows: Vec<(u64, u64)>,
    slots: Vec<AccuracyTracker>,
}

impl Job {
    fn new(config: &PredictorConfig, windows: Vec<(u64, u64)>) -> Self {
        let slots = vec![AccuracyTracker::new(); windows.len()];
        Job { predictor: config.build(), windows, slots }
    }

    /// Replays `records` (dense ids `ids`) in order. Record `i` sits at
    /// position `first + i`, or `first + listed[i]` when the records were
    /// picked out of a chunk. Runs inside window `s` tally into slot `s`;
    /// the rest are observed untallied. A window covering the whole slice
    /// is one [`BatchScratch::run_slice`] call.
    fn replay(
        &mut self,
        scratch: &mut BatchScratch,
        records: &[TraceRecord],
        ids: &[PcId],
        first: u64,
        listed: Option<&[u32]>,
    ) {
        let at = |pos: u64| match listed {
            None => pos.saturating_sub(first).min(records.len() as u64) as usize,
            Some(listed) => listed.partition_point(|&i| first + u64::from(i) < pos),
        };
        let predictor = self.predictor.as_mut();
        let mut done = 0;
        for (slot, &(start, end)) in self.slots.iter_mut().zip(&self.windows) {
            let (lo, hi) = (at(start), at(end));
            if lo >= hi {
                continue;
            }
            if done < lo {
                scratch.observe_slice(predictor, &records[done..lo], &ids[done..lo]);
            }
            scratch.run_slice(predictor, slot, &records[lo..hi], &ids[lo..hi]);
            done = hi;
        }
        if done < records.len() {
            scratch.observe_slice(predictor, &records[done..], &ids[done..]);
        }
    }
}

/// Sums each cell's unit tallies slot by slot; `tallies` holds the same
/// number of consecutive jobs for each of the `cells` cells.
fn merge(
    tallies: Vec<Vec<AccuracyTracker>>,
    cells: usize,
    slots: usize,
) -> Vec<Vec<AccuracyTracker>> {
    let units = tallies.len().checked_div(cells).unwrap_or(0);
    let mut tallies = tallies.into_iter();
    (0..cells)
        .map(|_| {
            let mut merged = vec![AccuracyTracker::new(); slots];
            for job in tallies.by_ref().take(units) {
                for (into, from) in merged.iter_mut().zip(&job) {
                    into.merge(from);
                }
            }
            merged
        })
        .collect()
}

/// Re-expresses trace-position windows in the record coordinates of each
/// [`SharedTrace::shard_by_pc`] shard: bound `b` becomes the number of the
/// shard's records before trace position `b`.
fn shard_windows(
    trace: &SharedTrace,
    nshards: usize,
    windows: &[(u64, u64)],
) -> Vec<Vec<(u64, u64)>> {
    let n_ids = trace.interner().len();
    let mut bounds = windows.iter().flat_map(|&(start, end)| [start, end]).peekable();
    let mut seen = vec![0u64; nshards];
    let mut local: Vec<Vec<u64>> = vec![Vec::new(); nshards];
    for (pos, (_, id)) in (0u64..).zip(trace.iter_with_ids()) {
        while bounds.next_if(|&bound| bound <= pos).is_some() {
            local.iter_mut().zip(&seen).for_each(|(local, &seen)| local.push(seen));
        }
        if bounds.peek().is_none() {
            break;
        }
        seen[shard_of_id(id, n_ids, nshards)] += 1;
    }
    for _ in bounds {
        local.iter_mut().zip(&seen).for_each(|(local, &seen)| local.push(seen));
    }
    local.into_iter().map(|b| b.chunks(2).map(|w| (w[0], w[1])).collect()).collect()
}

impl ReplayEngine {
    /// The resident source: replays every trace under every
    /// configuration and returns one merged slot vector per (trace,
    /// configuration) cell, trace-major.
    ///
    /// # Panics
    ///
    /// Panics if a sampled policy's plan is invalid or was built for a
    /// trace of a different length.
    pub(crate) fn replay_resident(
        &self,
        traces: &[SharedTrace],
        bank: &[PredictorConfig],
        tally: Tally<'_>,
    ) -> Vec<Vec<AccuracyTracker>> {
        if let Some(plan) = tally.plan() {
            for trace in traces {
                check_plan(plan, trace.len() as u64).unwrap_or_else(|e| panic!("{e}"));
            }
        }
        // Each trace's units: the records a unit replays, the span of
        // them it replays, and its windows in their coordinates.
        type Unit = (SharedTrace, (u64, u64), Vec<(u64, u64)>);
        let units: Vec<Vec<Unit>> = match tally {
            Tally::Cold(plan) => traces
                .iter()
                .map(|trace| {
                    (0..plan.phases.len())
                        .map(|phase| (trace.clone(), tally.span(phase), tally.windows(phase)))
                        .collect()
                })
                .collect(),
            _ => {
                let nshards = self.shards();
                self.map(traces.to_vec(), move |trace| {
                    let windows = match tally {
                        Tally::Warm(_) => shard_windows(&trace, nshards, &tally.windows(0)),
                        _ => vec![tally.windows(0); nshards],
                    };
                    let shards = trace.shard_by_pc(nshards).into_iter();
                    shards.zip(windows).map(|(shard, windows)| (shard, WHOLE, windows)).collect()
                })
            }
        };
        let jobs: Vec<(&PredictorConfig, &Unit)> = units
            .iter()
            .flat_map(|units| {
                bank.iter().flat_map(move |config| units.iter().map(move |u| (config, u)))
            })
            .collect();
        let tallies = self.map(jobs, |(config, (trace, span, windows))| {
            let mut job = Job::new(config, windows.clone());
            job.predictor.reserve_ids(trace.interner().len());
            let mut scratch = BatchScratch::new();
            let mut first = 0u64;
            for (records, ids) in trace.chunks().iter().zip(trace.id_chunks()) {
                let range = clip(*span, first, records.len());
                let start = first + range.start as u64;
                job.replay(&mut scratch, &records[range.clone()], &ids[range], start, None);
                first += records.len() as u64;
                if first >= span.1 {
                    break;
                }
            }
            job.slots
        });
        merge(tallies, traces.len() * bank.len(), tally.slots())
    }

    /// The streaming source: replays one v2/v3/v4 container without
    /// materializing it and returns the header plus one merged slot
    /// vector per configuration. Chunks no unit's span touches (only
    /// possible under [`Tally::Cold`]) stream past undecoded.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] for a malformed header, a sampled
    /// policy's plan that is invalid or disagrees with the header's record
    /// count, a payload that ends inside a chunk, any decoded chunk failing
    /// validation, or a torn trailing section.
    pub(crate) fn replay_stream<R: Read>(
        &self,
        mut reader: R,
        bank: &[PredictorConfig],
        tally: Tally<'_>,
    ) -> Result<(v2::Header, Vec<Vec<AccuracyTracker>>), TraceIoError> {
        let (version, header) = v2::read_versioned_header(&mut reader)?;
        if let Some(plan) = tally.plan() {
            check_plan(plan, header.record_count)?;
        }
        let nshards = self.shards();
        let units = tally.units(nshards);
        // Shard units pick their records out of each chunk.
        let split = !matches!(tally, Tally::Cold(_)) && nshards > 1;
        // One job per (configuration, unit), configuration-major;
        // consumer `c` owns jobs `c, c + consumers, …` so configurations
        // spread across threads before units do.
        let jobs = bank.len() * units;
        let consumers = self.workers().min(jobs);
        let outputs = decode_ahead(
            self.chunk_window(),
            consumers,
            // Producer (calling thread): read and verify chunks in index
            // order, decoding those some unit replays. The validated
            // header guarantees contiguous offsets, so the payload region
            // is consumed front to back.
            |window| {
                let mut payload = Vec::new();
                let mut first = 0u64;
                for (index, info) in header.chunks.iter().enumerate() {
                    v2::read_chunk_payload(&mut reader, index, info, &mut payload)?;
                    let len = info.records as usize;
                    if (0..units).any(|unit| !clip(tally.span(unit), first, len).is_empty()) {
                        window.push((first, v2::decode_chunk(&payload, info)?));
                    }
                    first += u64::from(info.records);
                }
                let mut rest = Vec::new();
                reader.read_to_end(&mut rest)?;
                v2::validate_trailing(version, &rest)?;
                Ok::<(), TraceIoError>(())
            },
            |window, consumer| {
                let mut owned: Vec<usize> = (consumer..jobs).step_by(consumers).collect();
                // Jobs of one unit run back to back, so each shard's
                // records are gathered once per chunk.
                owned.sort_by_key(|&job| job % units);
                let mut states: Vec<(Job, PcInterner)> = owned
                    .iter()
                    .map(|&job| {
                        let windows = tally.windows(job % units);
                        (Job::new(&bank[job / units], windows), PcInterner::new())
                    })
                    .collect();
                // Each shard's chunk indices, rebuilt once per chunk and
                // shared by every job this consumer owns.
                let mut by_shard: Vec<Vec<u32>> = vec![Vec::new(); if split { nshards } else { 0 }];
                let (mut picked, mut picked_unit) = (Vec::new(), None);
                let mut scratch = BatchScratch::new();
                let mut ids: Vec<PcId> = Vec::new();
                while let Some(chunk) = window.next(consumer) {
                    let (first, records) = (chunk.0, chunk.1.as_slice());
                    if split {
                        by_shard.iter_mut().for_each(Vec::clear);
                        for (i, rec) in (0u32..).zip(records) {
                            by_shard[shard_of_pc(rec.pc, nshards)].push(i);
                        }
                        picked_unit = None;
                    }
                    for (&job, (state, interner)) in owned.iter().zip(&mut states) {
                        let unit = job % units;
                        let (records, first, listed) = if split {
                            let indices = &by_shard[unit];
                            if picked_unit != Some(unit) {
                                picked.clear();
                                picked.extend(indices.iter().map(|&i| records[i as usize]));
                                picked_unit = Some(unit);
                            }
                            (picked.as_slice(), first, Some(indices.as_slice()))
                        } else {
                            let range = clip(tally.span(unit), first, records.len());
                            (&records[range.clone()], first + range.start as u64, None)
                        };
                        ids.clear();
                        ids.extend(records.iter().map(|rec| interner.intern(rec.pc)));
                        state.replay(&mut scratch, records, &ids, first, listed);
                    }
                }
                owned
                    .into_iter()
                    .zip(states)
                    .map(|(job, (state, _))| (job, state.slots))
                    .collect::<Vec<_>>()
            },
        )?;
        let mut tallies = vec![Vec::new(); jobs];
        for (job, slots) in outputs.into_iter().flatten() {
            tallies[job] = slots;
        }
        Ok((header, merge(tallies, bank.len(), tally.slots())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedTraceBuilder;
    use dvp_trace::{InstrCategory, Pc, SimPointPhase};

    fn records(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                let category = InstrCategory::from_index((i % 8) as usize).expect("valid");
                let value = match i % 23 {
                    0..=9 => i / 23,
                    10..=15 => (i / 23) % 5,
                    _ => (i * 2_654_435_761) % 89,
                };
                TraceRecord::new(Pc(0x40_0000 + 4 * (i % 23)), category, value)
            })
            .collect()
    }

    /// Every (correct, predicted) count of a tracker, per category and
    /// overall.
    fn counts(tracker: &AccuracyTracker) -> Vec<(u64, u64)> {
        InstrCategory::ALL
            .into_iter()
            .map(Some)
            .chain([None])
            .map(|c| (tracker.correct(c), tracker.predicted(c)))
            .collect()
    }

    #[test]
    fn full_replay_is_warm_replay_with_one_whole_trace_phase() {
        let records = records(20_000);
        let mut bytes = Vec::new();
        v2::write_records(&mut bytes, &v2::TraceMeta::default(), &records, 1024).expect("writes");
        // Resident chunks deliberately misaligned with the container's.
        let mut builder = SharedTraceBuilder::with_chunk_len(1000);
        records.iter().for_each(|&rec| builder.push(rec));
        let trace = builder.finish();
        let len = trace.len() as u64;
        let plan = PhasePlan {
            window_records: len,
            warmup_records: 0,
            seed: 0,
            total_records: len,
            phases: vec![SimPointPhase { cluster_records: len, start: 0, end: len }],
        };
        let bank = PredictorConfig::paper_bank();
        for (workers, shards, window) in [(1, 1, 1), (2, 3, 1), (4, 8, 4)] {
            let engine = ReplayEngine::new()
                .with_workers(workers)
                .with_shards(shards)
                .with_chunk_window(window);
            let setting = format!("workers={workers} shards={shards} window={window}");
            let full = engine.replay(&trace, &bank);
            let warm = engine.replay_sampled_warm(&trace, &bank, &plan);
            let (_, full_streamed) = engine.replay_streaming(bytes.as_slice(), &bank).unwrap();
            let (_, warm_streamed) =
                engine.replay_sampled_warm_streaming(bytes.as_slice(), &bank, &plan).unwrap();
            for i in 0..bank.len() {
                assert_eq!(counts(&warm[i].phases[0]), counts(&full[i].tracker), "{setting}");
                assert_eq!(
                    counts(&warm_streamed[i].phases[0]),
                    counts(&full_streamed[i].tracker),
                    "streaming {setting}"
                );
                assert_eq!(full[i].tracker.total(), len, "{setting}");
            }
        }
    }

    /// The kernel tallies exactly the records inside each window, however
    /// the stream is sliced and whether positions are contiguous or
    /// listed.
    #[test]
    fn job_tallies_window_records_at_any_slicing() {
        let records = records(3000);
        let mut interner = PcInterner::new();
        let ids: Vec<PcId> = records.iter().map(|r| interner.intern(r.pc)).collect();
        let windows = vec![(100, 700), (700, 701), (1500, 2999)];
        // Per-record reference over the records `keep` selects.
        let reference = |config: &PredictorConfig, keep: &dyn Fn(&TraceRecord) -> bool| {
            let mut predictor = config.build();
            let mut slots = vec![AccuracyTracker::new(); windows.len()];
            for (pos, (rec, &id)) in (0u64..).zip(records.iter().zip(&ids)) {
                if !keep(rec) {
                    continue;
                }
                let ok = predictor.observe_id(id, rec.pc, rec.value);
                if let Some(slot) = windows.iter().position(|&(s, e)| (s..e).contains(&pos)) {
                    slots[slot].record(rec.category, ok);
                }
            }
            slots.iter().map(counts).collect::<Vec<_>>()
        };
        let half = |rec: &TraceRecord| rec.pc.0.is_multiple_of(8);
        for config in PredictorConfig::paper_bank() {
            let all = reference(&config, &|_| true);
            let picked = reference(&config, &half);
            for chunk in [7usize, 256, 3000] {
                let mut scratch = BatchScratch::new();
                let mut contiguous = Job::new(&config, windows.clone());
                let mut listed = Job::new(&config, windows.clone());
                let chunks = records.chunks(chunk).zip(ids.chunks(chunk));
                for (first, (recs, chunk_ids)) in (0u64..).step_by(chunk).zip(chunks) {
                    contiguous.replay(&mut scratch, recs, chunk_ids, first, None);
                    let indices: Vec<u32> =
                        (0u32..).zip(recs).filter(|(_, r)| half(r)).map(|(i, _)| i).collect();
                    let recs: Vec<TraceRecord> =
                        indices.iter().map(|&i| recs[i as usize]).collect();
                    let sub_ids: Vec<PcId> =
                        indices.iter().map(|&i| chunk_ids[i as usize]).collect();
                    listed.replay(&mut scratch, &recs, &sub_ids, first, Some(&indices));
                }
                let name = config.name();
                assert_eq!(contiguous.slots.iter().map(counts).collect::<Vec<_>>(), all, "{name}");
                assert_eq!(listed.slots.iter().map(counts).collect::<Vec<_>>(), picked, "{name}");
            }
        }
    }
}
