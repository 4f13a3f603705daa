//! DP-engine shootout: scalar vs SIMD execution for the DP-motif
//! kernels — `bsw`, `phmm`, `spoa` and `abea`.
//!
//! Times the three bsw execution modes (per-pair scalar i32, i16 SoA
//! SIMD unsorted, i16 SoA SIMD length-sorted), the two phmm engines
//! (row-wise f32/f64, anti-diagonal wavefront f32), the two spoa engines
//! (inline-predecessor scalar i32, i16 row-sweep) and the two abea
//! engines (cell-at-a-time scalar, contiguous-band f32) on identical
//! small-tier-shaped batches. The engines are bit-identical (see
//! `crates/dp/tests/dp_engines_diff.rs` and
//! `crates/poa/tests/poa_engines_diff.rs`), so any wall-clock difference
//! is pure execution efficiency.

use criterion::{criterion_group, criterion_main, Criterion};
use gb_core::quality::Phred;
use gb_core::record::ReadRecord;
use gb_core::rng::Rng;
use gb_core::seq::DnaSeq;
use gb_datagen::signal::{simulate_signal, Event, PoreModel, SignalSimConfig};
use gb_dp::abea::{align_events_engine, AbeaParams};
use gb_dp::bsw::{banded_sw, SwParams, SwTask};
use gb_dp::bsw_simd::run_simd;
use gb_dp::phmm::{forward_likelihood, HmmParams};
use gb_dp::phmm_wavefront::wavefront_likelihood;
use gb_dp::DpEngine;
use gb_poa::align::PoaParams;
use gb_poa::consensus::window_consensus_engine;

/// `len` uniform bases.
fn bases(rng: &mut Rng, len: usize) -> DnaSeq {
    (0..len).map(|_| rng.gen_range(0..4u8)).collect()
}

/// `seq` with each base substituted with probability `rate`.
fn noisy(rng: &mut Rng, seq: &DnaSeq, rate: f64) -> DnaSeq {
    let mutate = |&c| (c + u8::from(rng.gen::<f64>() < rate)) % 4;
    seq.as_codes().iter().map(mutate).collect()
}

/// Small-tier-shaped bsw batch: 85% noisy copies, lengths 60..=400.
fn bsw_tasks(n: usize, seed: u64) -> Vec<SwTask> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let qlen = rng.gen_range(60..=400usize);
            let query = bases(&mut rng, qlen);
            let target = if rng.gen::<f64>() < 0.85 {
                noisy(&mut rng, &query, 0.03)
            } else {
                let tlen = rng.gen_range(60..=400usize);
                bases(&mut rng, tlen)
            };
            SwTask { query, target }
        })
        .collect()
}

/// Read/haplotype pairs shaped like the phmm kernel's region tasks.
fn phmm_pairs(n: usize, seed: u64) -> Vec<(ReadRecord, DnaSeq)> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let hlen = rng.gen_range(200..400usize);
            let hap = bases(&mut rng, hlen);
            let rlen = rng.gen_range(80..150usize);
            let start = rng.gen_range(0..hlen - rlen);
            let read = ReadRecord::with_uniform_quality(
                format!("r{i}"),
                noisy(&mut rng, &hap.slice(start, start + rlen), 0.02),
                Phred::new(30),
            );
            (read, hap)
        })
        .collect()
}

/// Racon-window-shaped spoa inputs: a backbone plus noisy copies.
fn spoa_windows(n: usize, depth: usize, seed: u64) -> Vec<Vec<DnaSeq>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(150..250usize);
            let backbone = bases(&mut rng, len);
            let mut reads = vec![backbone.clone()];
            for _ in 0..depth {
                reads.push(noisy(&mut rng, &backbone, 0.06));
            }
            reads
        })
        .collect()
}

/// Event streams + references shaped like the abea kernel's reads.
fn abea_reads(n: usize, seed: u64) -> Vec<(Vec<Event>, DnaSeq)> {
    let mut rng = Rng::seed_from_u64(seed);
    let model = PoreModel::r9_like();
    let cfg = SignalSimConfig::default();
    (0..n)
        .map(|_| {
            let len = rng.gen_range(300..600usize);
            let reference = bases(&mut rng, len);
            let events = simulate_signal(&reference, &model, &cfg, rng.gen()).events;
            (events, reference)
        })
        .collect()
}

fn bench_dp_engines(c: &mut Criterion) {
    let sw_params = SwParams::default();
    let tasks = bsw_tasks(256, 0xB5D);
    let pairs = phmm_pairs(48, 0xF17);

    let mut group = c.benchmark_group("dp_engines_bsw");
    group.sample_size(10);
    group.bench_function("scalar", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for t in &tasks {
                let r = banded_sw(&t.query, &t.target, &sw_params);
                acc = acc.wrapping_add(r.score as u64).wrapping_add(r.cells);
            }
            std::hint::black_box(acc)
        })
    });
    group.bench_function("simd_unsorted", |b| {
        b.iter(|| {
            let (rs, _) = run_simd(&tasks, &sw_params, false);
            std::hint::black_box(rs.len())
        })
    });
    group.bench_function("simd_sorted", |b| {
        b.iter(|| {
            let (rs, _) = run_simd(&tasks, &sw_params, true);
            std::hint::black_box(rs.len())
        })
    });
    group.finish();

    let hmm_params = HmmParams::default();
    let mut group = c.benchmark_group("dp_engines_phmm");
    group.sample_size(10);
    group.bench_function("rowwise", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for (read, hap) in &pairs {
                acc += forward_likelihood(read, hap, &hmm_params).log10_likelihood;
            }
            std::hint::black_box(acc)
        })
    });
    group.bench_function("wavefront", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for (read, hap) in &pairs {
                acc += wavefront_likelihood(read, hap, &hmm_params).log10_likelihood;
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();

    let poa_params = PoaParams::default();
    let windows = spoa_windows(12, 10, 0x50A);
    let mut group = c.benchmark_group("dp_engines_spoa");
    group.sample_size(10);
    for (name, engine) in [("scalar", DpEngine::Scalar), ("simd", DpEngine::Simd)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for w in &windows {
                    let (cons, stats, _) = window_consensus_engine(w, &poa_params, engine);
                    acc = acc
                        .wrapping_add(stats.cells)
                        .wrapping_add(cons.len() as u64);
                }
                std::hint::black_box(acc)
            })
        });
    }
    group.finish();

    let abea_params = AbeaParams::default();
    let abea_model = PoreModel::r9_like();
    let reads = abea_reads(24, 0xABEA);
    let mut group = c.benchmark_group("dp_engines_abea");
    group.sample_size(10);
    for (name, engine) in [("scalar", DpEngine::Scalar), ("simd", DpEngine::Simd)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for (events, reference) in &reads {
                    if let Some(r) =
                        align_events_engine(events, reference, &abea_model, &abea_params, engine)
                    {
                        acc = acc.wrapping_add(r.cells).wrapping_add(r.moves_right);
                    }
                }
                std::hint::black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dp_engines);
criterion_main!(benches);
