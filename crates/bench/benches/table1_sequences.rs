//! Table 1 / Figure 2 machinery: predictor throughput on the Section 1.1
//! sequence classes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dvp_core::sequences::{constant, non_stride, repeated_non_stride, repeated_stride, stride};
use dvp_core::{FcmPredictor, LastValuePredictor, PcKeyed, Predictor, StridePredictor};
use dvp_trace::Pc;
use std::hint::black_box;
use std::time::Duration;

const N: usize = 10_000;

fn predictors() -> Vec<Box<dyn Predictor>> {
    vec![
        Box::new(LastValuePredictor::new()),
        Box::new(StridePredictor::two_delta()),
        Box::new(FcmPredictor::new(2)),
    ]
}

fn bench(c: &mut Criterion) {
    let sequences: Vec<(&str, Vec<u64>)> = vec![
        ("constant", constant(5, N)),
        ("stride", stride(0, 3, N)),
        ("non_stride", non_stride(1, N)),
        ("repeated_stride", repeated_stride(1, 1, 8, N)),
        ("repeated_non_stride", repeated_non_stride(1, 8, N)),
    ];
    let mut group = c.benchmark_group("table1_sequences");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.throughput(Throughput::Elements(N as u64));
    for (class, values) in &sequences {
        for make in 0..predictors().len() {
            let name = predictors()[make].name().to_owned();
            group.bench_with_input(BenchmarkId::new(name, class), values, |b, values| {
                b.iter(|| {
                    let mut p = PcKeyed::new(predictors().remove(make));
                    let mut correct = 0u32;
                    for &v in values {
                        correct += u32::from(p.observe(Pc(0), v));
                    }
                    black_box(correct)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
