//! The refactor's headline measurement: per-record predictor state access,
//! hash-mapped vs dense-slot, per predictor family.
//!
//! Three drive modes over the same real workload trace:
//!
//! * `hashmap` — a baseline reimplementation of the predictor's table as
//!   `HashMap<Pc, _>` with the classic two-probe predict-then-update
//!   protocol (exactly what every `dvp-core` predictor did before PC
//!   interning);
//! * `pc-fused` — the `PcKeyed` adapter (`observe`): one interner hash
//!   probe per record, then the fused dense step on the located slot;
//! * `dense` — the engine's replay path (`observe_id` over the trace's
//!   pre-interned ids): one indexed slot access, no hashing at all.
//!
//! Before the timed groups run, one untimed dense pass per family reports
//! **peak bytes allocated** (through a counting global allocator), so the
//! flat-table layout's memory side shows up next to its speed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dvp_bench::workload_trace;
use dvp_core::{
    FcmPredictor, HybridPredictor, LastValuePredictor, PcKeyed, Predictor, StridePredictor,
};
use dvp_engine::SharedTrace;
use dvp_trace::{Pc, Value};
use dvp_workloads::Benchmark;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Bytes currently allocated through [`CountingAlloc`].
static CURRENT: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`CURRENT`] since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A [`System`]-backed allocator that tracks live bytes and their peak —
/// the instrument behind the per-family `peak-bytes` report. Benchmarks
/// are separate crate roots, so this is the one place in the workspace
/// where `unsafe` (required by [`GlobalAlloc`]) appears.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let now = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns the peak bytes it held live beyond what was
/// already allocated when it started.
fn peak_bytes_of(f: impl FnOnce() -> u64) -> usize {
    let before = CURRENT.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    black_box(f());
    PEAK.load(Ordering::Relaxed).saturating_sub(before)
}

/// Baseline last-value predictor: the pre-refactor table shape.
fn hashmap_last_value(trace: &SharedTrace) -> u64 {
    let mut table: HashMap<Pc, Value> = HashMap::new();
    let mut correct = 0u64;
    for rec in trace.iter() {
        // Two probes per record: predict, then update.
        correct += u64::from(table.get(&rec.pc) == Some(&rec.value));
        table.insert(rec.pc, rec.value);
    }
    correct
}

/// Baseline two-delta stride predictor over a `HashMap` table.
fn hashmap_stride(trace: &SharedTrace) -> u64 {
    struct Entry {
        last: Value,
        stride: Value,
        last_delta: Value,
    }
    let mut table: HashMap<Pc, Entry> = HashMap::new();
    let mut correct = 0u64;
    for rec in trace.iter() {
        correct +=
            u64::from(table.get(&rec.pc).map(|e| e.last.wrapping_add(e.stride)) == Some(rec.value));
        match table.get_mut(&rec.pc) {
            Some(e) => {
                let delta = rec.value.wrapping_sub(e.last);
                if delta == e.last_delta {
                    e.stride = delta;
                }
                e.last_delta = delta;
                e.last = rec.value;
            }
            None => {
                table.insert(rec.pc, Entry { last: rec.value, stride: 0, last_delta: 0 });
            }
        }
    }
    correct
}

fn drive_pc(p: impl Predictor, trace: &SharedTrace) -> u64 {
    let mut p = PcKeyed::new(p);
    let mut correct = 0u64;
    for rec in trace.iter() {
        correct += u64::from(p.observe(rec.pc, rec.value));
    }
    correct
}

fn drive_dense(mut p: impl Predictor, trace: &SharedTrace) -> u64 {
    p.reserve_ids(trace.interner().len());
    let mut correct = 0u64;
    for (rec, id) in trace.iter_with_ids() {
        correct += u64::from(p.observe_id(id, rec.pc, rec.value));
    }
    correct
}

/// One dense-drive constructor per family, shared by the peak-bytes
/// report and the timed groups.
type FamilyCtor = Box<dyn Fn() -> Box<dyn Predictor>>;

fn families() -> Vec<(&'static str, FamilyCtor)> {
    vec![
        ("l", Box::new(|| Box::new(LastValuePredictor::new()))),
        ("s2", Box::new(|| Box::new(StridePredictor::two_delta()))),
        ("fcm1", Box::new(|| Box::new(FcmPredictor::new(1)))),
        ("fcm2", Box::new(|| Box::new(FcmPredictor::new(2)))),
        ("fcm3", Box::new(|| Box::new(FcmPredictor::new(3)))),
        ("hybrid", Box::new(|| Box::new(HybridPredictor::stride_fcm(2)))),
    ]
}

fn bench(c: &mut Criterion) {
    let trace: SharedTrace = workload_trace(Benchmark::M88k).iter().copied().collect();

    // Untimed memory report: peak bytes each family's predictor state
    // reaches over one full dense replay.
    for (name, build) in families() {
        let peak = peak_bytes_of(|| drive_dense(build(), &trace));
        println!("peak-bytes {name}/dense = {peak} ({} records)", trace.len());
    }

    let mut group = c.benchmark_group("predictor_hot_loop");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));

    // Last value: baseline hashmap vs both current surfaces.
    group.bench_function(BenchmarkId::new("l", "hashmap"), |b| {
        b.iter(|| black_box(hashmap_last_value(&trace)));
    });
    group.bench_function(BenchmarkId::new("l", "pc-fused"), |b| {
        b.iter(|| black_box(drive_pc(LastValuePredictor::new(), &trace)));
    });
    group.bench_function(BenchmarkId::new("l", "dense"), |b| {
        b.iter(|| black_box(drive_dense(LastValuePredictor::new(), &trace)));
    });

    // Two-delta stride.
    group.bench_function(BenchmarkId::new("s2", "hashmap"), |b| {
        b.iter(|| black_box(hashmap_stride(&trace)));
    });
    group.bench_function(BenchmarkId::new("s2", "pc-fused"), |b| {
        b.iter(|| black_box(drive_pc(StridePredictor::two_delta(), &trace)));
    });
    group.bench_function(BenchmarkId::new("s2", "dense"), |b| {
        b.iter(|| black_box(drive_dense(StridePredictor::two_delta(), &trace)));
    });

    // FCM and the hybrid spend most of their time in per-context model
    // work — the flat value-history table's target. Orders 1..=3 span
    // the single-order to deep-blending range the paper studies.
    for order in 1..=3usize {
        group.bench_function(BenchmarkId::new(format!("fcm{order}"), "pc-fused"), |b| {
            b.iter(|| black_box(drive_pc(FcmPredictor::new(order), &trace)));
        });
        group.bench_function(BenchmarkId::new(format!("fcm{order}"), "dense"), |b| {
            b.iter(|| black_box(drive_dense(FcmPredictor::new(order), &trace)));
        });
    }
    group.bench_function(BenchmarkId::new("hybrid", "pc-fused"), |b| {
        b.iter(|| black_box(drive_pc(HybridPredictor::stride_fcm(2), &trace)));
    });
    group.bench_function(BenchmarkId::new("hybrid", "dense"), |b| {
        b.iter(|| black_box(drive_dense(HybridPredictor::stride_fcm(2), &trace)));
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
