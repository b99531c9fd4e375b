//! Engine replay vs the pre-engine sequential loop: the same
//! five-predictor bank over the same shared workload trace, timed three
//! ways. On a multi-core host the `engine-all-cores` rows demonstrate the
//! engine's speedup over `sequential-lockstep`; `engine-1-worker` bounds
//! the engine's bookkeeping overhead (sharding + job scheduling) since its
//! tallies are identical by construction. The `engine_replay_sampled`
//! group times phase-sampled replay (cold and functionally warmed,
//! resident and streaming) against the full replay, with the plan's
//! >=10x tallied-record reduction asserted up front.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dvp_bench::shared_workload_trace;
use dvp_core::{AccuracyTracker, PcKeyed, Predictor, PredictorConfig};
use dvp_engine::{phase_plan, PhaseOptions, ReplayEngine};
use dvp_workloads::Benchmark;
use std::hint::black_box;
use std::time::Duration;

fn sequential_lockstep(
    trace: &dvp_engine::SharedTrace,
    bank: &[PredictorConfig],
) -> Vec<AccuracyTracker> {
    let mut predictors: Vec<PcKeyed<Box<dyn Predictor>>> =
        bank.iter().map(|config| PcKeyed::new(config.build())).collect();
    let mut trackers = vec![AccuracyTracker::new(); predictors.len()];
    for rec in trace.iter() {
        for (p, tracker) in predictors.iter_mut().zip(&mut trackers) {
            tracker.record(rec.category, p.observe(rec.pc, rec.value));
        }
    }
    trackers
}

fn bench(c: &mut Criterion) {
    let trace = shared_workload_trace(Benchmark::Cc);
    let bank = PredictorConfig::paper_bank();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let mut group = c.benchmark_group("engine_replay");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);
    // One element per (record, predictor) observation.
    group.throughput(Throughput::Elements(trace.len() as u64 * bank.len() as u64));

    group.bench_function(BenchmarkId::from_parameter("sequential-lockstep"), |b| {
        b.iter(|| black_box(sequential_lockstep(&trace, &bank)));
    });

    let one_worker = ReplayEngine::new().with_workers(1);
    group.bench_function(BenchmarkId::from_parameter("engine-1-worker"), |b| {
        b.iter(|| black_box(one_worker.replay(&trace, &bank)));
    });

    let all_cores = ReplayEngine::new();
    group.bench_function(BenchmarkId::from_parameter(format!("engine-all-cores({cores})")), |b| {
        b.iter(|| black_box(all_cores.replay(&trace, &bank)));
    });
    group.finish();

    // The other axis the engine parallelizes: the whole predictor×workload
    // matrix at once (as `repro` figures 3-7 run it).
    let traces: Vec<dvp_engine::SharedTrace> =
        [Benchmark::Cc, Benchmark::Compress, Benchmark::M88k]
            .into_iter()
            .map(shared_workload_trace)
            .collect();
    let total: usize = traces.iter().map(dvp_engine::SharedTrace::len).sum();
    let mut group = c.benchmark_group("engine_replay_matrix");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(total as u64 * bank.len() as u64));
    group.bench_function(BenchmarkId::from_parameter("sequential-lockstep"), |b| {
        b.iter(|| {
            let all: Vec<Vec<AccuracyTracker>> =
                traces.iter().map(|t| sequential_lockstep(t, &bank)).collect();
            black_box(all)
        });
    });
    group.bench_function(BenchmarkId::from_parameter(format!("engine-all-cores({cores})")), |b| {
        b.iter(|| black_box(all_cores.replay_matrix(&traces, &bank)));
    });
    group.finish();

    // Streaming replay: decode + replay through the bounded chunk window
    // (fixed resident memory), against the resident two-phase equivalent
    // (load the whole container, then replay). Tallies are identical by
    // construction; the rows pin what bounded memory costs in throughput.
    let trace = shared_workload_trace(Benchmark::Cc);
    let meta = dvp_trace::io::v2::TraceMeta {
        fingerprint: dvp_trace::io::v2::Fingerprint {
            workload: Benchmark::Cc.name().to_owned(),
            input: "cc.ref".to_owned(),
            opt_level: "O1".to_owned(),
            seed: 0,
            scale: 1,
            record_cap: trace.len() as u64,
        },
        retired: trace.len() as u64,
        predicted: trace.len() as u64,
    };
    let mut container = Vec::new();
    dvp_trace::io::v2::write_compressed(
        &mut container,
        &meta,
        trace.chunks().iter().map(Vec::as_slice),
        &[],
    )
    .expect("encodes");

    let mut group = c.benchmark_group("engine_replay_streaming");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64 * bank.len() as u64));
    group.bench_function(BenchmarkId::from_parameter("resident-load-then-replay"), |b| {
        b.iter(|| {
            let (_, loaded) = all_cores.load_trace(&container).expect("loads");
            black_box(all_cores.replay(&loaded, &bank))
        });
    });
    group.bench_function(
        BenchmarkId::from_parameter(format!("streaming-all-cores({cores})")),
        |b| {
            b.iter(|| black_box(all_cores.replay_streaming(container.as_slice(), &bank)));
        },
    );
    group.bench_function(BenchmarkId::from_parameter("streaming-window-1"), |b| {
        let window_1 = ReplayEngine::new().with_chunk_window(1);
        b.iter(|| black_box(window_1.replay_streaming(container.as_slice(), &bank)));
    });
    group.finish();

    // Phase sampling: the full replay against the cold sampled replay
    // (warmup + representative windows only — the >=10x record-footprint
    // win) and the functionally-warmed one (every record observed, only
    // windows tallied — the accuracy-gated estimator), resident and
    // streaming. The plan's reduction is asserted, so a >=10x gap in
    // records *touched* between `full-replay` and `sampled-cold` rows is
    // pinned by construction; the throughput rows show what that buys in
    // wall clock.
    let plan = phase_plan(&trace, &PhaseOptions::default());
    let reduction = plan.total_records as f64 / plan.simulated_records() as f64;
    assert!(
        reduction >= 10.0,
        "bench plan must tally at most a tenth of the trace, got {reduction:.1}x"
    );
    eprintln!(
        "[sampled] cc: {} of {} records tallied ({reduction:.1}x), {} touched cold, {} phases",
        plan.simulated_records(),
        plan.total_records,
        plan.replayed_records(),
        plan.phases.len()
    );

    let mut group = c.benchmark_group("engine_replay_sampled");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64 * bank.len() as u64));
    group.bench_function(BenchmarkId::from_parameter("full-replay"), |b| {
        b.iter(|| black_box(all_cores.replay(&trace, &bank)));
    });
    group.bench_function(BenchmarkId::from_parameter("sampled-cold"), |b| {
        b.iter(|| black_box(all_cores.replay_sampled(&trace, &bank, &plan)));
    });
    group.bench_function(BenchmarkId::from_parameter("sampled-warm"), |b| {
        b.iter(|| black_box(all_cores.replay_sampled_warm(&trace, &bank, &plan)));
    });
    group.bench_function(BenchmarkId::from_parameter("streaming-full"), |b| {
        b.iter(|| black_box(all_cores.replay_streaming(container.as_slice(), &bank)));
    });
    group.bench_function(BenchmarkId::from_parameter("streaming-sampled-cold"), |b| {
        b.iter(|| {
            black_box(all_cores.replay_sampled_streaming(container.as_slice(), &bank, &plan))
        });
    });
    group.bench_function(BenchmarkId::from_parameter("streaming-sampled-warm"), |b| {
        b.iter(|| {
            black_box(all_cores.replay_sampled_warm_streaming(container.as_slice(), &bank, &plan))
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
