//! The paper's three end-to-end pipelines (Fig. 1) as library functions.
//!
//! The kernels exist to serve these pipelines; wiring them together here
//! (a) proves the kernel APIs compose, and (b) gives examples/tests one
//! canonical implementation of each flow:
//!
//! - [`reference_guided`]: map reads (fmi + bsw), re-assemble regions
//!   (dbg), score haplotypes (phmm), call SNVs — Fig. 1a,
//! - [`denovo_polish`]: count k-mers, assemble unitigs, polish windows
//!   with POA consensus — Fig. 1b,
//! - [`metagenomic_abundance`]: classify reads against a pan-genome with
//!   SMEMs and estimate composition — Fig. 1c.

use gb_assembly::dbg::{assemble_region, DbgParams};
use gb_assembly::unitigs::{assemble_unitigs, Assembly, UnitigParams};
use gb_core::cigar::{Cigar, CigarOp};
use gb_core::record::{AlignmentRecord, ReadRecord, Strand};
use gb_core::region::{Region, RegionTask};
use gb_core::seq::DnaSeq;
use gb_dp::bsw::{banded_sw, SwParams};
use gb_dp::phmm::{forward_likelihood, HmmParams};
use gb_fmi::bidir::BiIndex;
use gb_fmi::smem::{collect_smems, SmemConfig};
use gb_obs::{NullRecorder, Recorder};
use gb_poa::align::PoaParams;
use gb_poa::consensus::window_consensus;

/// Runs `f` as a named pipeline stage: when `recorder` is enabled the
/// stage is timed and emitted as a span (category `"stage"`); when
/// disabled the closure runs with no timing overhead at all.
fn stage<T>(recorder: &dyn Recorder, name: &str, f: impl FnOnce() -> T) -> T {
    if !recorder.enabled() {
        return f();
    }
    let ts = recorder.now_ns();
    let start = std::time::Instant::now();
    let out = f();
    recorder.span(name, "stage", 0, ts, start.elapsed().as_nanos() as u64);
    out
}

/// An open pipeline-root span: covers the whole `*_traced` call so the
/// per-stage spans nest under one root frame (`rg;rg:map`-style) when
/// profile analytics folds the trace by interval containment. Inert (no
/// clock reads) when the recorder is disabled.
struct RootSpan<'a> {
    recorder: &'a dyn Recorder,
    name: &'static str,
    open: Option<(u64, std::time::Instant)>,
}

impl<'a> RootSpan<'a> {
    fn enter(recorder: &'a dyn Recorder, name: &'static str) -> Self {
        let open = recorder
            .enabled()
            .then(|| (recorder.now_ns(), std::time::Instant::now()));
        RootSpan {
            recorder,
            name,
            open,
        }
    }

    /// Emits the span; called at the pipeline's single return point (not
    /// a `Drop` impl, so an unwinding pipeline emits nothing).
    fn exit(self) {
        if let Some((ts, start)) = self.open {
            self.recorder
                .span(self.name, "stage", 0, ts, start.elapsed().as_nanos() as u64);
        }
    }
}

/// A called variant site from the reference-guided pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalledSnv {
    /// 0-based reference position.
    pub pos: usize,
    /// The called alternate base (2-bit code).
    pub alt: u8,
}

/// Output of [`reference_guided`].
#[derive(Debug, Clone, Default)]
pub struct ReferenceGuidedResult {
    /// Reads successfully mapped.
    pub mapped_reads: usize,
    /// SNVs called, sorted by position.
    pub snvs: Vec<CalledSnv>,
}

/// Maps `reads` (already strand-corrected, e.g. from
/// `SimulatedRead::to_alignment`) against `reference`, re-assembles
/// `region_len` windows and calls SNVs where an alternate haplotype beats
/// the reference by `min_log10_margin` under the pair-HMM.
pub fn reference_guided(
    reference: &DnaSeq,
    reads: &[ReadRecord],
    region_len: usize,
    min_log10_margin: f64,
) -> ReferenceGuidedResult {
    reference_guided_traced(
        reference,
        reads,
        region_len,
        min_log10_margin,
        &NullRecorder,
    )
}

/// [`reference_guided`] with stage spans (`rg:index`, `rg:map`,
/// `rg:call`) and mapped-read/SNV counters emitted on `recorder`.
pub fn reference_guided_traced(
    reference: &DnaSeq,
    reads: &[ReadRecord],
    region_len: usize,
    min_log10_margin: f64,
    recorder: &dyn Recorder,
) -> ReferenceGuidedResult {
    let root = RootSpan::enter(recorder, "rg");
    let index = stage(recorder, "rg:index", || BiIndex::build(reference));
    let smem_cfg = SmemConfig {
        min_seed_len: 19,
        min_intv: 1,
    };
    let sw = SwParams::default();

    // 1. Map: SMEM seed + banded-SW extension of the best seed.
    let mapped = stage(recorder, "rg:map", || {
        let mut mapped: Vec<AlignmentRecord> = Vec::new();
        for read in reads {
            let smems = collect_smems(&index, &read.seq, &smem_cfg);
            let Some(best) = smems.iter().max_by_key(|m| m.len()) else {
                continue;
            };
            let mut best_hit: Option<(i32, usize)> = None;
            for row in best.interval.k..best.interval.k + best.interval.s.min(4) {
                let hit = index.forward().locate(row) as usize;
                let start = hit.saturating_sub(best.start + 8);
                let target = reference.slice(start, start + read.len() + 16);
                let r = banded_sw(&read.seq, &target, &sw);
                if best_hit.is_none_or(|(s, _)| r.score > s) {
                    best_hit = Some((r.score, start + r.target_end.saturating_sub(r.query_end)));
                }
            }
            if let Some((_, pos)) = best_hit {
                let mut cigar = Cigar::new();
                cigar.push(read.len() as u32, CigarOp::Match);
                if let Ok(a) =
                    AlignmentRecord::new(read.clone(), 0, pos, cigar, 60, Strand::Forward)
                {
                    mapped.push(a);
                }
            }
        }
        mapped
    });
    recorder.counter("rg:mapped_reads", mapped.len() as u64);

    // 2+3. Per-window re-assembly and pair-HMM haplotype scoring.
    let hmm = HmmParams::default();
    let dbg_params = DbgParams {
        max_haplotypes: 4,
        ..DbgParams::default()
    };
    let snvs = stage(recorder, "rg:call", || {
        let mut snvs = Vec::new();
        for region in Region::tile(0, reference.len(), region_len) {
            let in_region: Vec<AlignmentRecord> = mapped
                .iter()
                .filter(|a| a.overlaps(region.start, region.end))
                .cloned()
                .collect();
            if in_region.is_empty() {
                continue;
            }
            let task = RegionTask {
                region,
                ref_seq: reference.slice(region.start, region.end),
                reads: in_region,
            };
            let asm = assemble_region(&task, &dbg_params);
            if asm.haplotypes.len() < 2 {
                continue;
            }
            let score = |hap: &DnaSeq| -> f64 {
                task.reads
                    .iter()
                    .map(|r| forward_likelihood(&r.read, hap, &hmm).log10_likelihood)
                    .sum()
            };
            let ref_score = score(&asm.haplotypes[0]);
            let (best_alt, alt_score) = asm.haplotypes[1..]
                .iter()
                .map(|h| (h, score(h)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("alternates exist");
            if alt_score > ref_score + min_log10_margin && best_alt.len() == task.ref_seq.len() {
                for (off, (&a, &b)) in task
                    .ref_seq
                    .as_codes()
                    .iter()
                    .zip(best_alt.as_codes())
                    .enumerate()
                {
                    if a != b {
                        snvs.push(CalledSnv {
                            pos: region.start + off,
                            alt: b,
                        });
                    }
                }
            }
        }
        snvs.sort_by_key(|s| s.pos);
        snvs.dedup();
        snvs
    });
    recorder.counter("rg:snvs", snvs.len() as u64);
    root.exit();
    ReferenceGuidedResult {
        mapped_reads: mapped.len(),
        snvs,
    }
}

/// Output of [`denovo_polish`].
#[derive(Debug, Clone)]
pub struct DenovoResult {
    /// The unitig assembly.
    pub assembly: Assembly,
    /// Polished contigs (same order as `assembly.contigs`).
    pub polished: Vec<DnaSeq>,
}

/// Assembles `reads` into unitigs and polishes each contig with a POA
/// consensus over the reads' matching windows (a simplified Racon pass:
/// reads are matched to contigs by containment of their first k-mer).
pub fn denovo_polish(reads: &[DnaSeq], params: &UnitigParams) -> DenovoResult {
    denovo_polish_traced(reads, params, &NullRecorder)
}

/// [`denovo_polish`] with stage spans (`dn:assemble`, `dn:polish`) and a
/// contig counter emitted on `recorder`.
pub fn denovo_polish_traced(
    reads: &[DnaSeq],
    params: &UnitigParams,
    recorder: &dyn Recorder,
) -> DenovoResult {
    let root = RootSpan::enter(recorder, "dn");
    let assembly = stage(recorder, "dn:assemble", || assemble_unitigs(reads, params));
    recorder.counter("dn:contigs", assembly.contigs.len() as u64);
    let poa = PoaParams::default();
    let polished = stage(recorder, "dn:polish", || {
        assembly
            .contigs
            .iter()
            .map(|contig| {
                // Window = whole contig (contigs here are window-sized); the
                // backbone plus any read fully contained in it.
                let contig_str = contig.to_string();
                let rc = contig.reverse_complement().to_string();
                let mut window = vec![contig.clone()];
                for r in reads {
                    let s = r.to_string();
                    if contig_str.contains(&s) {
                        window.push(r.clone());
                    } else if rc.contains(&s) {
                        window.push(r.reverse_complement());
                    }
                    if window.len() > 16 {
                        break;
                    }
                }
                window_consensus(&window, &poa).0
            })
            .collect()
    });
    root.exit();
    DenovoResult { assembly, polished }
}

/// Output of [`metagenomic_abundance`].
#[derive(Debug, Clone)]
pub struct AbundanceResult {
    /// Reads classified per species (index-aligned with the input
    /// genome list).
    pub counts: Vec<u64>,
    /// Estimated fractions (sums to 1 over classified reads).
    pub fractions: Vec<f64>,
    /// Reads with no SMEM above the seed threshold.
    pub unclassified: u64,
}

/// Classifies `reads` against the concatenated `species` genomes by the
/// location of each read's longest SMEM.
pub fn metagenomic_abundance(
    species: &[DnaSeq],
    reads: &[DnaSeq],
    min_seed_len: usize,
) -> AbundanceResult {
    metagenomic_abundance_traced(species, reads, min_seed_len, &NullRecorder)
}

/// [`metagenomic_abundance`] with stage spans (`mg:index`,
/// `mg:classify`) and classification counters emitted on `recorder`.
pub fn metagenomic_abundance_traced(
    species: &[DnaSeq],
    reads: &[DnaSeq],
    min_seed_len: usize,
    recorder: &dyn Recorder,
) -> AbundanceResult {
    let root = RootSpan::enter(recorder, "mg");
    let index = stage(recorder, "mg:index", || {
        let mut pan = Vec::new();
        for s in species {
            pan.extend_from_slice(s.as_codes());
        }
        BiIndex::build(&DnaSeq::from_codes_unchecked(pan))
    });
    let mut boundaries = vec![0usize];
    for s in species {
        boundaries.push(boundaries.last().expect("nonempty") + s.len());
    }
    let cfg = SmemConfig {
        min_seed_len,
        min_intv: 1,
    };
    let mut counts = vec![0u64; species.len()];
    let mut unclassified = 0u64;
    stage(recorder, "mg:classify", || {
        for read in reads {
            let smems = collect_smems(&index, read, &cfg);
            match smems.iter().max_by_key(|m| m.len()) {
                Some(best) => {
                    let pos = index.forward().locate(best.interval.k) as usize;
                    let sp = boundaries
                        .windows(2)
                        .position(|w| pos >= w[0] && pos < w[1])
                        .expect("position within pan-genome");
                    counts[sp] += 1;
                }
                None => unclassified += 1,
            }
        }
    });
    recorder.counter("mg:classified", counts.iter().sum());
    recorder.counter("mg:unclassified", unclassified);
    let total: u64 = counts.iter().sum();
    let fractions = counts
        .iter()
        .map(|&c| {
            if total == 0 {
                0.0
            } else {
                c as f64 / total as f64
            }
        })
        .collect();
    root.exit();
    AbundanceResult {
        counts,
        fractions,
        unclassified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_datagen::genome::{Genome, GenomeConfig};
    use gb_datagen::reads::{simulate_reads, ErrorProfile, ReadSimConfig};
    use gb_datagen::variants::{inject_variants, VariantConfig, VariantKind};

    #[test]
    fn reference_guided_finds_planted_snvs() {
        let genome = Genome::generate(
            &GenomeConfig {
                length: 8_000,
                ..Default::default()
            },
            51,
        );
        let reference = genome.contig(0).clone();
        let sample = inject_variants(
            &reference,
            &VariantConfig {
                snv_rate: 0.003,
                ins_rate: 0.0,
                del_rate: 0.0,
                het_fraction: 0.0,
                ..Default::default()
            },
            52,
        );
        let hap_genome = Genome::from_contigs(vec![sample.hap1.clone()]);
        let cfg = ReadSimConfig {
            num_reads: 8_000 * 25 / 151,
            ..ReadSimConfig::short(0)
        };
        let reads: Vec<ReadRecord> = simulate_reads(&hap_genome, &cfg, 53)
            .iter()
            .map(|r| r.to_alignment().read)
            .collect();
        let result = reference_guided(&reference, &reads, 400, 3.0);
        assert!(result.mapped_reads > reads.len() / 2);
        let truth: Vec<usize> = sample
            .truth
            .iter()
            .filter(|v| matches!(v.kind, VariantKind::Snv { .. }))
            .map(|v| v.pos)
            .collect();
        assert!(!truth.is_empty());
        let tp = result
            .snvs
            .iter()
            .filter(|s| truth.contains(&s.pos))
            .count();
        // Homozygous SNVs at 25x: expect decent recall and no junk calls.
        assert!(
            tp * 2 >= truth.len(),
            "recall too low: {tp}/{}",
            truth.len()
        );
        assert!(
            tp * 2 >= result.snvs.len(),
            "precision too low: {tp}/{}",
            result.snvs.len()
        );
    }

    #[test]
    fn denovo_polish_reconstructs_clean_genome() {
        let genome = Genome::generate(
            &GenomeConfig {
                length: 2_000,
                repeat_fraction: 0.0,
                ..Default::default()
            },
            61,
        );
        let truth = genome.contig(0).clone();
        let mut reads = Vec::new();
        let mut s = 0;
        while s + 200 <= truth.len() {
            reads.push(truth.slice(s, s + 200));
            reads.push(truth.slice(s, s + 200));
            s += 50;
        }
        reads.push(truth.slice(truth.len() - 200, truth.len()));
        reads.push(truth.slice(truth.len() - 200, truth.len()));
        let r = denovo_polish(&reads, &UnitigParams::default());
        assert_eq!(r.assembly.contigs.len(), 1);
        assert_eq!(r.polished.len(), 1);
        // Clean double-coverage reads re-assemble the genome exactly, up to
        // strand.
        let contig = &r.assembly.contigs[0];
        assert!(
            contig == &truth || contig.reverse_complement() == truth,
            "assembly did not reconstruct the generated genome \
(contig {} bp vs truth {} bp)",
            contig.len(),
            truth.len()
        );
        // The polish returns the backbone less its last 10 bases: the
        // consensus path ends inside the read pile at the contig's end.
        let (polished, backbone) = (r.polished[0].to_string(), contig.to_string());
        assert!(
            backbone.starts_with(&polished) && polished.len() + 10 >= backbone.len(),
            "polished {} bp vs contig {} bp",
            polished.len(),
            backbone.len()
        );
    }

    #[test]
    fn traced_pipeline_emits_stage_spans() {
        use gb_obs::TraceRecorder;
        let genome = Genome::generate(
            &GenomeConfig {
                length: 1_000,
                repeat_fraction: 0.0,
                ..Default::default()
            },
            61,
        );
        let truth = genome.contig(0).clone();
        let mut reads = Vec::new();
        let mut s = 0;
        while s + 200 <= truth.len() {
            reads.push(truth.slice(s, s + 200));
            s += 50;
        }
        let rec = TraceRecorder::new();
        let r = denovo_polish_traced(&reads, &UnitigParams::default(), &rec);
        assert_eq!(
            rec.counters().get("dn:contigs"),
            Some(&(r.assembly.contigs.len() as u64))
        );
        let trace = rec.into_trace();
        let names: Vec<&str> = trace.events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"dn:assemble"), "stages: {names:?}");
        assert!(names.contains(&"dn:polish"), "stages: {names:?}");
        // Stage spans nest inside the recorder's timeline in order.
        let assemble = trace
            .events
            .iter()
            .find(|e| e.name == "dn:assemble")
            .unwrap();
        let polish = trace.events.iter().find(|e| e.name == "dn:polish").unwrap();
        assert!(
            assemble.ts_ns + assemble.dur_ns <= polish.ts_ns,
            "stages overlap"
        );
    }

    #[test]
    fn untraced_equals_traced() {
        use gb_obs::TraceRecorder;
        let species: Vec<DnaSeq> = (0..2)
            .map(|i| {
                Genome::generate(
                    &GenomeConfig {
                        length: 2_000,
                        ..Default::default()
                    },
                    91 + i,
                )
                .contig(0)
                .clone()
            })
            .collect();
        let reads: Vec<DnaSeq> = (0..10)
            .map(|i| species[i % 2].slice(i * 37, i * 37 + 80))
            .collect();
        let plain = metagenomic_abundance(&species, &reads, 25);
        let rec = TraceRecorder::new();
        let traced = metagenomic_abundance_traced(&species, &reads, 25, &rec);
        assert_eq!(plain.counts, traced.counts);
        assert_eq!(plain.unclassified, traced.unclassified);
    }

    #[test]
    fn abundance_recovers_mixture() {
        let species: Vec<DnaSeq> = (0..3)
            .map(|i| {
                Genome::generate(
                    &GenomeConfig {
                        length: 6_000,
                        ..Default::default()
                    },
                    71 + i as u64,
                )
                .contig(0)
                .clone()
            })
            .collect();
        let mix = [0.5f64, 0.3, 0.2];
        let mut reads = Vec::new();
        for (i, s) in species.iter().enumerate() {
            let g = Genome::from_contigs(vec![s.clone()]);
            let cfg = ReadSimConfig {
                num_reads: (300.0 * mix[i]) as usize,
                errors: ErrorProfile::illumina(),
                ..ReadSimConfig::short(0)
            };
            reads.extend(
                simulate_reads(&g, &cfg, 80 + i as u64)
                    .into_iter()
                    .map(|r| r.to_alignment().read.seq),
            );
        }
        let r = metagenomic_abundance(&species, &reads, 25);
        assert_eq!(r.unclassified, 0);
        for (est, want) in r.fractions.iter().zip(mix) {
            assert!((est - want).abs() < 0.05, "estimated {est} vs true {want}");
        }
    }
}
