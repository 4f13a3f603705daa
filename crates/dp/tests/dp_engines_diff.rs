//! Differential proptests: the SIMD DP engines vs their scalar kernels.
//!
//! The i16 SoA bsw engine must be **bit-identical** to the scalar i32
//! kernel — scores, end positions, Z-drop decisions, cell counts — and
//! its `BatchReport` slot counts must match the i32 lockstep reference,
//! across random batches, random banding/Z-drop settings, forced lane
//! overflow (large match scores retire lanes to the i32 ladder) and
//! out-of-i16-range parameters (whole-group fallback).
//!
//! The wavefront phmm engine must match row-wise likelihoods to 1e-6
//! relative — and, because it keeps the exact f32 expression tree and
//! summation order, the tests actually assert bit-equality of the final
//! likelihood, cell counts, and the underflow-rescue decision, including
//! forced-underflow reads.
//!
//! The contiguous-band abea engine must be bit-identical to the scalar
//! adaptive-band kernel — scores, alignments, cell counts and the
//! band-shift walk itself (`moves_right`) — across random signals,
//! random band widths down to the minimum (band-edge ties decide shift
//! direction there), and degenerate inputs, where both engines must
//! agree on returning `None`.
//!
//! The spoa i16 row-sweep engine's differential proptests live in
//! `gb-poa`'s `tests/poa_engines_diff.rs` — `gb-dp` cannot depend on
//! `gb-poa` (the dependency points the other way), so the tests follow
//! the kernel.

use gb_core::quality::Phred;
use gb_core::record::ReadRecord;
use gb_core::seq::DnaSeq;
use gb_datagen::signal::{simulate_signal, PoreModel, SignalSimConfig, PORE_K};
use gb_dp::abea::{align_events, align_events_engine, align_events_simd, AbeaParams, AbeaResult};
use gb_dp::bsw::{banded_sw, run_batch, SwParams, SwTask};
use gb_dp::bsw_batch::LANES;
use gb_dp::bsw_simd::{params_fit_i16, run_simd, simd_group_probed};
use gb_dp::phmm::{forward_likelihood, HmmParams};
use gb_dp::phmm_wavefront::wavefront_likelihood;
use gb_dp::DpEngine;
use gb_uarch::probe::NullProbe;
use proptest::prelude::*;

fn codes(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, min..max)
}

/// A random batch of alignment tasks: a mix of noisy copies (high-score
/// lanes) and unrelated pairs (early Z-drops), with varying lengths so
/// lockstep groups are imbalanced.
fn task_batch(max_tasks: usize) -> impl Strategy<Value = Vec<SwTask>> {
    proptest::collection::vec(
        (codes(1, 120), codes(1, 120), proptest::bool::ANY, 0u8..100),
        1..max_tasks,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(q, t, related, noise)| {
                let target = if related {
                    // Noisy copy of the query: long high-scoring diagonal.
                    q.iter()
                        .enumerate()
                        .map(|(i, &c)| {
                            if (i as u8).wrapping_mul(37) % 100 < noise % 8 {
                                (c + 1) % 4
                            } else {
                                c
                            }
                        })
                        .collect()
                } else {
                    t
                };
                SwTask {
                    query: DnaSeq::from_codes_unchecked(q),
                    target: DnaSeq::from_codes_unchecked(target),
                }
            })
            .collect()
    })
}

fn sw_params() -> impl Strategy<Value = SwParams> {
    // Options built from (present, value) pairs, nested to stay within
    // tuple arity 5: the offline proptest stub has no `proptest::option`
    // module and implements `Strategy` only for small tuples.
    (
        (1i32..6, 0i32..8, 0i32..10, 0i32..4),
        (proptest::bool::ANY, 1usize..60),
        (proptest::bool::ANY, 0i32..80),
    )
        .prop_map(|(scores, band, zdrop)| {
            let (match_score, mismatch, gap_open, gap_extend) = scores;
            SwParams {
                match_score,
                mismatch,
                gap_open,
                gap_extend,
                band: band.0.then_some(band.1),
                zdrop: zdrop.0.then_some(zdrop.1),
            }
        })
}

/// Bit-identity for the two abea engines, including `None` agreement
/// (band drift away from the terminal cell must happen identically).
fn assert_abea_identical(events_seq: &DnaSeq, cfg: &SignalSimConfig, seed: u64, p: &AbeaParams) {
    let model = PoreModel::r9_like();
    let events = simulate_signal(events_seq, &model, cfg, seed).events;
    let scalar = align_events(&events, events_seq, &model, p);
    let simd = align_events_simd(&events, events_seq, &model, p);
    match (scalar, simd) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            let (a, b): (&AbeaResult, &AbeaResult) = (&a, &b);
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "score bits");
            assert_eq!(a.alignment, b.alignment, "alignment");
            assert_eq!(a.cells, b.cells, "cells");
            assert_eq!(a.moves_right, b.moves_right, "band walk");
        }
        (a, b) => panic!("engines disagree on alignability: {a:?} vs {b:?}"),
    }
}

/// Panicking comparison helper (plain asserts, so it works under both the
/// real proptest runner and the offline stub).
fn assert_bsw_identical(tasks: &[SwTask], params: &SwParams, sort: bool) {
    let (simd_results, simd_rep) = run_simd(tasks, params, sort);
    let (lockstep_results, lockstep_rep) = run_batch(tasks, params, LANES, sort);
    for (i, task) in tasks.iter().enumerate() {
        let scalar = banded_sw(&task.query, &task.target, params);
        assert_eq!(simd_results[i], scalar, "task {i} simd vs scalar");
        assert_eq!(lockstep_results[i], scalar, "task {i} lockstep vs scalar");
    }
    // Slot accounting matches the i32 lockstep reference exactly.
    assert_eq!(simd_rep.scalar_cells, lockstep_rep.scalar_cells);
    assert_eq!(simd_rep.vector_cells, lockstep_rep.vector_cells);
    assert_eq!(simd_rep.batches, lockstep_rep.batches);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simd_bsw_bit_identical_default_params(tasks in task_batch(40), sort in proptest::bool::ANY) {
        assert_bsw_identical(&tasks, &SwParams::default(), sort);
    }

    #[test]
    fn simd_bsw_bit_identical_random_params(
        tasks in task_batch(24),
        params in sw_params(),
        sort in proptest::bool::ANY,
    ) {
        assert_bsw_identical(&tasks, &params, sort);
    }

    #[test]
    fn simd_bsw_forced_overflow_retires_and_stays_exact(
        lens in proptest::collection::vec(10usize..400, 1..LANES),
        match_score in 500i32..8_000,
    ) {
        // Self-alignments with a huge match score push H past the i16
        // retire limit fast; the laddered rerun must still be exact. The
        // appended 400-base lane overflows for every generated score
        // (400 x 500 >> RETIRE_LIMIT); shorter lanes may stay in i16.
        let tasks: Vec<SwTask> = lens
            .iter()
            .copied()
            .chain(std::iter::once(400))
            .map(|len| {
                let q = DnaSeq::from_codes_unchecked((0..len).map(|i| (i % 4) as u8).collect());
                SwTask { query: q.clone(), target: q }
            })
            .collect();
        let params = SwParams {
            match_score,
            band: None,
            zdrop: None,
            ..SwParams::default()
        };
        prop_assert!(params_fit_i16(&params));
        let (results, rep) = simd_group_probed(&tasks, &params, &mut NullProbe);
        let mut expected_retired = 0u64;
        for (task, r) in tasks.iter().zip(&results) {
            let scalar = banded_sw(&task.query, &task.target, &params);
            prop_assert_eq!(*r, scalar);
            if scalar.score >= i32::from(gb_dp::bsw_simd::RETIRE_LIMIT) {
                expected_retired += 1;
            }
        }
        prop_assert_eq!(rep.retired_lanes, expected_retired);
        // Long self-alignments at score >= 90/match must overflow i16.
        prop_assert!(rep.retired_lanes > 0);
    }

    #[test]
    fn simd_bsw_out_of_range_params_fall_back_exactly(
        tasks in task_batch(20),
        magnitude in 10_000i32..100_000,
    ) {
        let params = SwParams {
            match_score: magnitude,
            mismatch: magnitude / 2,
            ..SwParams::default()
        };
        prop_assert!(!params_fit_i16(&params));
        assert_bsw_identical(&tasks, &params, false);
    }

    #[test]
    fn wavefront_phmm_matches_rowwise(
        r in codes(1, 60),
        h in codes(1, 80),
        q in 5u8..42,
    ) {
        let read = ReadRecord::with_uniform_quality(
            "r",
            DnaSeq::from_codes_unchecked(r),
            Phred::new(q),
        );
        let hap = DnaSeq::from_codes_unchecked(h);
        let params = HmmParams::default();
        let row = forward_likelihood(&read, &hap, &params);
        let wave = wavefront_likelihood(&read, &hap, &params);
        // The acceptance bound is 1e-6 relative; the engines are in fact
        // bit-equal because the f32 expression tree is preserved.
        let rel = (row.log10_likelihood - wave.log10_likelihood).abs()
            / row.log10_likelihood.abs().max(1.0);
        prop_assert!(rel < 1e-6, "rel {} row {} wave {}", rel, row.log10_likelihood, wave.log10_likelihood);
        prop_assert_eq!(row.log10_likelihood.to_bits(), wave.log10_likelihood.to_bits());
        prop_assert_eq!(row.cells, wave.cells);
        prop_assert_eq!(row.rescued, wave.rescued);
    }

    #[test]
    fn wavefront_phmm_forced_underflow_rescues_identically(
        mismatches in 40usize..70,
        q in 35u8..42,
    ) {
        // Alternating read over a poly-A haplotype: every other base is a
        // guaranteed high-quality mismatch, driving the f32 forward value
        // below the underflow limit so the f64 rescue must run.
        let hap = DnaSeq::from_codes_unchecked(vec![0u8; 220]);
        let codes: Vec<u8> = (0..mismatches * 2)
            .map(|i| if i % 2 == 0 { 0 } else { 1 })
            .collect();
        let read = ReadRecord::with_uniform_quality(
            "r",
            DnaSeq::from_codes_unchecked(codes),
            Phred::new(q),
        );
        let params = HmmParams::default();
        let row = forward_likelihood(&read, &hap, &params);
        let wave = wavefront_likelihood(&read, &hap, &params);
        prop_assert!(wave.rescued, "expected f64 rescue");
        prop_assert_eq!(row.rescued, wave.rescued);
        prop_assert_eq!(row.log10_likelihood.to_bits(), wave.log10_likelihood.to_bits());
        prop_assert_eq!(row.cells, wave.cells);
    }

    #[test]
    fn simd_abea_bit_identical_random_signals(
        r in codes(PORE_K, 160),
        split in 0u32..60,
        skip in 0u32..15,
        seed in 0u64..1_000_000,
    ) {
        let seq = DnaSeq::from_codes_unchecked(r);
        let cfg = SignalSimConfig {
            split_prob: f64::from(split) / 100.0,
            skip_prob: f64::from(skip) / 100.0,
            ..SignalSimConfig::default()
        };
        assert_abea_identical(&seq, &cfg, seed, &AbeaParams::default());
    }

    #[test]
    fn simd_abea_bit_identical_at_narrow_bands(
        r in codes(PORE_K, 120),
        bandwidth in 2usize..12,
        seed in 0u64..1_000_000,
    ) {
        // Narrow bands exercise the band-shift decision's tie cases
        // constantly: the two compared edge cells are often both NEG_INF,
        // so the walk must drift identically on both engines — or both
        // must lose the terminal cell and return None.
        let seq = DnaSeq::from_codes_unchecked(r);
        let params = AbeaParams {
            bandwidth,
            ..AbeaParams::default()
        };
        assert_abea_identical(&seq, &SignalSimConfig::default(), seed, &params);
    }

    #[test]
    fn simd_abea_degenerate_inputs_agree(
        short in codes(0, PORE_K),
        valid in codes(PORE_K, 40),
        bandwidth in 0usize..2,
    ) {
        // Sub-k references (zero k-mers), empty event streams, and
        // sub-minimum bandwidths must be rejected by both engines — the
        // guards have to agree, not just the happy paths.
        let model = PoreModel::r9_like();
        let cfg = SignalSimConfig::default();
        let short_seq = DnaSeq::from_codes_unchecked(short);
        let valid_seq = DnaSeq::from_codes_unchecked(valid);
        let events = simulate_signal(&valid_seq, &model, &cfg, 7).events;
        let defaults = AbeaParams::default();
        let narrow = AbeaParams {
            bandwidth,
            ..AbeaParams::default()
        };
        for engine in [DpEngine::Scalar, DpEngine::Simd] {
            prop_assert!(
                align_events_engine(&events, &short_seq, &model, &defaults, engine).is_none()
            );
            prop_assert!(
                align_events_engine(&[], &valid_seq, &model, &defaults, engine).is_none()
            );
            prop_assert!(
                align_events_engine(&events, &valid_seq, &model, &narrow, engine).is_none()
            );
        }
    }
}
