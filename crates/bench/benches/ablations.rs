//! Ablation benches for the design choices DESIGN.md calls out: blending
//! policy, hysteresis policies, counter mode, hybrid chooser, and trace
//! length. Each reports accuracy (via a one-shot println) alongside its
//! timing so the cost/quality trade-off is visible in one place.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dvp_bench::workload_trace;
use dvp_core::{
    run_trace_records, Blending, ConfidentPredictor, CounterMode, FcmPredictor, HybridPredictor,
    LastValuePolicy, LastValuePredictor, Predictor, StridePolicy, StridePredictor,
    TypedHybridPredictor,
};
use dvp_trace::{PcInterner, TraceRecord};
use dvp_workloads::Benchmark;
use std::hint::black_box;
use std::time::Duration;

/// Labelled predictor constructors for a bench group.
type PredictorMakes = Vec<(&'static str, fn() -> Box<dyn Predictor>)>;
use std::sync::Once;

fn accuracy(p: &mut dyn Predictor, trace: &[TraceRecord]) -> f64 {
    let (correct, total) = dvp_core::run_trace(p, trace.iter());
    correct as f64 / total as f64
}

fn report_once(header: &str, rows: &[(String, f64)]) {
    static ONCE: Once = Once::new();
    let _ = &ONCE;
    eprintln!("\n[ablation] {header}");
    for (name, acc) in rows {
        eprintln!("[ablation]   {name:<22} {:>5.1}%", acc * 100.0);
    }
}

fn bench_blending(c: &mut Criterion) {
    let trace = workload_trace(Benchmark::Perl);
    let configs: Vec<(&str, Blending)> = vec![
        ("lazy_exclusion", Blending::LazyExclusion),
        ("full", Blending::Full),
        ("single_order", Blending::SingleOrder),
    ];
    let rows: Vec<(String, f64)> = configs
        .iter()
        .map(|(name, blending)| {
            let mut p = FcmPredictor::with_config(3, *blending, CounterMode::Exact);
            ((*name).to_owned(), accuracy(&mut p, trace))
        })
        .collect();
    report_once("fcm3 blending (perl trace)", &rows);

    let mut group = c.benchmark_group("ablation_blending");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    for (name, blending) in configs {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut p = FcmPredictor::with_config(3, blending, CounterMode::Exact);
                black_box(dvp_core::run_trace(&mut p, trace.iter()))
            });
        });
    }
    group.finish();
}

fn bench_hysteresis(c: &mut Criterion) {
    let trace = workload_trace(Benchmark::Go);
    let makes: PredictorMakes = vec![
        ("l_always", || Box::new(LastValuePredictor::new())),
        ("l_saturating", || {
            Box::new(LastValuePredictor::with_policy(LastValuePolicy::SaturatingCounter {
                max: 3,
                threshold: 2,
            }))
        }),
        ("l_confirm2", || {
            Box::new(LastValuePredictor::with_policy(LastValuePolicy::ConsecutiveConfirm {
                required: 2,
            }))
        }),
        ("s_simple", || Box::new(StridePredictor::with_policy(StridePolicy::Simple))),
        ("s_hysteresis", || {
            Box::new(StridePredictor::with_policy(StridePolicy::Hysteresis {
                max: 3,
                threshold: 1,
            }))
        }),
        ("s_two_delta", || Box::new(StridePredictor::two_delta())),
    ];
    let rows: Vec<(String, f64)> =
        makes.iter().map(|(n, m)| ((*n).to_owned(), accuracy(m().as_mut(), trace))).collect();
    report_once("hysteresis policies (go trace)", &rows);

    let mut group = c.benchmark_group("ablation_hysteresis");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.throughput(Throughput::Elements(trace.len() as u64));
    for (name, make) in makes {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut p = make();
                black_box(dvp_core::run_trace(p.as_mut(), trace.iter()))
            });
        });
    }
    group.finish();
}

fn bench_counters(c: &mut Criterion) {
    let trace = workload_trace(Benchmark::Compress);
    let configs: Vec<(&str, CounterMode)> = vec![
        ("exact", CounterMode::Exact),
        ("saturating_16", CounterMode::Saturating { max: 16 }),
        ("saturating_4", CounterMode::Saturating { max: 4 }),
    ];
    let rows: Vec<(String, f64)> = configs
        .iter()
        .map(|(name, mode)| {
            let mut p = FcmPredictor::with_config(3, Blending::LazyExclusion, *mode);
            ((*name).to_owned(), accuracy(&mut p, trace))
        })
        .collect();
    report_once("fcm3 counter modes (compress trace)", &rows);

    let mut group = c.benchmark_group("ablation_counters");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    for (name, mode) in configs {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut p = FcmPredictor::with_config(3, Blending::LazyExclusion, mode);
                black_box(dvp_core::run_trace(&mut p, trace.iter()))
            });
        });
    }
    group.finish();
}

fn bench_hybrid(c: &mut Criterion) {
    let trace = workload_trace(Benchmark::Cc);
    let rows = vec![
        ("s2".to_owned(), accuracy(&mut StridePredictor::two_delta(), trace)),
        ("fcm3".to_owned(), accuracy(&mut FcmPredictor::new(3), trace)),
        ("hybrid_s2_fcm3".to_owned(), accuracy(&mut HybridPredictor::stride_fcm(3), trace)),
    ];
    report_once("hybrid vs components (cc trace)", &rows);

    let mut group = c.benchmark_group("ablation_hybrid");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("hybrid_s2_fcm3", |b| {
        b.iter(|| {
            let mut p = HybridPredictor::stride_fcm(3);
            black_box(dvp_core::run_trace(&mut p, trace.iter()))
        });
    });
    group.finish();
}

fn bench_trace_length(c: &mut Criterion) {
    // Accuracy as a function of trace length: justifies running shorter
    // traces than the paper's (accuracy stabilizes well before our default
    // lengths).
    let trace = workload_trace(Benchmark::M88k);
    let lengths = [10_000usize, 50_000, 100_000, trace.len()];
    let rows: Vec<(String, f64)> = lengths
        .iter()
        .map(|&n| {
            let mut p = FcmPredictor::new(3);
            (format!("first_{n}"), accuracy(&mut p, &trace[..n]))
        })
        .collect();
    report_once("fcm3 accuracy vs trace length (m88k trace)", &rows);

    let mut group = c.benchmark_group("ablation_trace_length");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);
    for &n in &lengths {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut p = FcmPredictor::new(3);
                black_box(dvp_core::run_trace(&mut p, trace[..n].iter()))
            });
        });
    }
    group.finish();
}

fn bench_matched_function(c: &mut Criterion) {
    // Paper §4.1: a hybrid routed by instruction type, with the prediction
    // function matched to the instruction's functionality.
    let trace = workload_trace(Benchmark::Ijpeg);
    let mut typed = TypedHybridPredictor::paper_suggestion(3);
    let (typed_correct, total) = run_trace_records(&mut typed, trace.iter());
    let rows = vec![
        ("s2_uniform".to_owned(), accuracy(&mut StridePredictor::two_delta(), trace)),
        ("fcm3_uniform".to_owned(), accuracy(&mut FcmPredictor::new(3), trace)),
        ("typed_hybrid".to_owned(), typed_correct as f64 / total as f64),
    ];
    report_once("typed hybrid vs uniform predictors (ijpeg trace)", &rows);

    let mut group = c.benchmark_group("ablation_matched_function");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("typed_hybrid", |b| {
        b.iter(|| {
            let mut p = TypedHybridPredictor::paper_suggestion(3);
            black_box(run_trace_records(&mut p, trace.iter()))
        });
    });
    group.finish();
}

fn bench_confidence(c: &mut Criterion) {
    // Coverage/accuracy trade-off of saturating-counter confidence.
    let trace = workload_trace(Benchmark::Xlisp);
    let mut rows = Vec::new();
    for (name, threshold) in [("raw", 0u8), ("conf_t2", 2), ("conf_t6", 6)] {
        if threshold == 0 {
            rows.push((name.to_owned(), accuracy(&mut FcmPredictor::new(2), trace)));
        } else {
            let mut p = ConfidentPredictor::new(FcmPredictor::new(2), 8, threshold, 4);
            let mut interner = PcInterner::new();
            for rec in trace {
                p.observe_speculative(interner.intern(rec.pc), rec.pc, rec.value);
            }
            rows.push((
                format!("{name} (cov {:.0}%)", 100.0 * p.coverage()),
                p.speculated_accuracy(),
            ));
        }
    }
    report_once("confidence filtering of fcm2 (xlisp trace)", &rows);

    let mut group = c.benchmark_group("ablation_confidence");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("conf_t2_fcm2", |b| {
        b.iter(|| {
            let mut p = ConfidentPredictor::new(FcmPredictor::new(2), 8, 2, 4);
            let mut interner = PcInterner::new();
            for rec in trace {
                p.observe_speculative(interner.intern(rec.pc), rec.pc, rec.value);
            }
            black_box(p.coverage())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_blending,
    bench_hysteresis,
    bench_counters,
    bench_hybrid,
    bench_matched_function,
    bench_confidence,
    bench_trace_length
);
criterion_main!(benches);
