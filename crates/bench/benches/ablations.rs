//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! - `ablation_fmi_occ`: checkpointed-Occ FM-index search vs a naive
//!   text scan (why the index exists at all),
//! - `ablation_fmi_stride`: Occ checkpoint stride sweep (space/time),
//! - `ablation_kmercnt_hash`: linear probing vs robin-hood,
//! - `ablation_kmercnt_prefetch`: software-prefetch window (paper §IV-F),
//! - `ablation_bsw_sorting`: length-sorted vs unsorted SIMD batches,
//! - `ablation_bsw_band`: banded vs full Smith-Waterman,
//! - `ablation_abea_band`: adaptive band vs full event-alignment matrix.

use criterion::{criterion_group, criterion_main, Criterion};
use gb_assembly::kmer_count::{count_kmers, count_kmers_prefetched, KmerCountParams};
use gb_assembly::kmer_table::Probing;
use gb_core::seq::DnaSeq;
use gb_datagen::genome::{Genome, GenomeConfig};
use gb_datagen::reads::{simulate_reads, ReadSimConfig};
use gb_datagen::signal::{simulate_signal, PoreModel, SignalSimConfig};
use gb_dp::abea::{align_events, align_events_full, AbeaParams};
use gb_dp::bsw::{banded_sw, SwParams};
use gb_fmi::FmIndex;
use gb_uarch::probe::NullProbe;

fn genome(len: usize) -> Genome {
    Genome::generate(
        &GenomeConfig {
            length: len,
            ..Default::default()
        },
        99,
    )
}

fn ablation_fmi_occ(c: &mut Criterion) {
    let g = genome(200_000);
    let text = g.concat();
    let idx = FmIndex::build(&text);
    let reads: Vec<DnaSeq> = simulate_reads(&g, &ReadSimConfig::short(50), 7)
        .into_iter()
        .map(|r| r.record.seq.slice(0, 25))
        .collect();
    let mut group = c.benchmark_group("ablation_fmi_occ");
    group.sample_size(10);
    group.bench_function("fm_index_search", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for r in &reads {
                hits += u64::from(idx.search(r).len());
            }
            std::hint::black_box(hits)
        })
    });
    group.bench_function("naive_text_scan", |b| {
        b.iter(|| {
            let t = text.as_codes();
            let mut hits = 0u64;
            for r in &reads {
                let p = r.as_codes();
                hits += (0..=t.len() - p.len())
                    .filter(|&i| &t[i..i + p.len()] == p)
                    .count() as u64;
            }
            std::hint::black_box(hits)
        })
    });
    group.finish();
}

fn ablation_fmi_stride(c: &mut Criterion) {
    use gb_fmi::index::FmConfig;
    let g = genome(500_000);
    let text = g.concat();
    let reads: Vec<DnaSeq> = simulate_reads(&g, &ReadSimConfig::short(100), 29)
        .into_iter()
        .map(|r| r.record.seq.slice(0, 30))
        .collect();
    let mut group = c.benchmark_group("ablation_fmi_stride");
    group.sample_size(10);
    for occ_stride in [32usize, 64, 128, 256] {
        let idx = gb_fmi::FmIndex::build_with(
            &text,
            &FmConfig {
                occ_stride,
                sa_stride: 32,
            },
        );
        eprintln!("occ_stride {occ_stride}: index {} bytes", idx.heap_bytes());
        group.bench_function(format!("occ_stride_{occ_stride}"), |b| {
            b.iter(|| {
                let mut hits = 0u64;
                for r in &reads {
                    hits += u64::from(idx.search(r).len());
                }
                std::hint::black_box(hits)
            })
        });
    }
    group.finish();
}

fn ablation_kmercnt(c: &mut Criterion) {
    let g = genome(100_000);
    let reads: Vec<DnaSeq> = simulate_reads(&g, &ReadSimConfig::long(120), 11)
        .into_iter()
        .map(|r| r.record.seq)
        .collect();
    let mut group = c.benchmark_group("ablation_kmercnt");
    group.sample_size(10);
    for (label, probing) in [
        ("linear", Probing::Linear),
        ("robin_hood", Probing::RobinHood),
    ] {
        let params = KmerCountParams {
            probing,
            ..Default::default()
        };
        group.bench_function(format!("hash_{label}"), |b| {
            b.iter(|| std::hint::black_box(count_kmers(&reads, &params).1.distinct))
        });
    }
    // Window 1 is the one-at-a-time characterisation path, 32 the kernel's.
    for window in [1usize, 8, 32, 64] {
        let params = KmerCountParams::default();
        group.bench_function(format!("prefetch_w{window}"), |b| {
            b.iter(|| {
                std::hint::black_box(
                    count_kmers_prefetched(&reads, &params, window, &mut NullProbe)
                        .1
                        .distinct,
                )
            })
        });
    }
    group.finish();
}

fn ablation_bsw(c: &mut Criterion) {
    let g = genome(50_000);
    let contig = g.contig(0);
    let pairs: Vec<(DnaSeq, DnaSeq)> = (0..60)
        .map(|i| {
            let start = (i * 700) % (contig.len() - 500);
            let t = contig.slice(start, start + 300);
            (t.clone(), t)
        })
        .collect();
    let mut group = c.benchmark_group("ablation_bsw");
    group.sample_size(10);
    for (label, band) in [("banded_100", Some(100usize)), ("full_matrix", None)] {
        let params = SwParams {
            band,
            zdrop: None,
            ..SwParams::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut acc = 0i64;
                for (q, t) in &pairs {
                    acc += i64::from(banded_sw(q, t, &params).score);
                }
                std::hint::black_box(acc)
            })
        });
    }
    group.finish();
}

fn ablation_abea(c: &mut Criterion) {
    let g = genome(20_000);
    let seq = g.contig(0).slice(0, 600);
    let model = PoreModel::r9_like();
    let sig = simulate_signal(&seq, &model, &SignalSimConfig::default(), 13);
    let mut group = c.benchmark_group("ablation_abea");
    group.sample_size(10);
    group.bench_function("adaptive_band", |b| {
        b.iter(|| {
            std::hint::black_box(
                align_events(&sig.events, &seq, &model, &AbeaParams::default()).map(|r| r.cells),
            )
        })
    });
    group.bench_function("full_matrix", |b| {
        b.iter(|| {
            std::hint::black_box(
                align_events_full(&sig.events, &seq, &model, &AbeaParams::default())
                    .map(|r| r.cells),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_fmi_occ,
    ablation_fmi_stride,
    ablation_kmercnt,
    ablation_bsw,
    ablation_abea
);
criterion_main!(benches);
