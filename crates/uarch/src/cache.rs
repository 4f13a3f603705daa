//! A trace-driven multi-level cache simulator.
//!
//! The paper measures cache miss rates, data-stall cycles and off-chip
//! traffic (Figs. 6 and 8) with hardware event-based sampling. Here the
//! same quantities come from simulating the kernel's actual load/store
//! address stream (delivered through [`CacheProbe`]) against a
//! Skylake-client-like hierarchy matching Table I of the paper.
//!
//! The model is a classic set-associative, write-allocate, writeback
//! hierarchy with true-LRU replacement and a DRAM row-buffer model behind
//! the last-level cache.

use crate::mix::{InstructionMix, MixProbe};
use crate::probe::Probe;
use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into a whole power-of-two
    /// number of sets.
    // PANIC-FREE: documented `# Panics` contract on the geometry; all
    // shipped geometries satisfy it.
    pub fn num_sets(&self) -> usize {
        let sets = self.size_bytes / (self.assoc * self.line_bytes);
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a positive power of two"
        );
        sets
    }
}

/// One set-associative cache level with true-LRU replacement.
#[derive(Debug, Clone)]
struct CacheLevel {
    geom: CacheGeometry,
    /// `tags[set]` holds `(tag, dirty)` in LRU order: front = MRU.
    tags: Vec<Vec<(u64, bool)>>,
    accesses: u64,
    misses: u64,
}

impl CacheLevel {
    // PANIC-FREE: only `num_sets` can panic, per its documented contract.
    fn new(geom: CacheGeometry) -> CacheLevel {
        let sets = geom.num_sets();
        CacheLevel {
            geom,
            tags: vec![Vec::new(); sets],
            accesses: 0,
            misses: 0,
        }
    }

    fn set_and_tag(&self, line_addr: u64) -> (usize, u64) {
        let sets = self.tags.len() as u64;
        ((line_addr % sets) as usize, line_addr / sets)
    }

    /// Looks up `line_addr`; on hit, promotes to MRU and merges `dirty`.
    /// Returns `true` on hit.
    fn access(&mut self, line_addr: u64, dirty: bool) -> bool {
        self.accesses += 1;
        let (set, tag) = self.set_and_tag(line_addr);
        let ways = &mut self.tags[set];
        if let Some(i) = ways.iter().position(|&(t, _)| t == tag) {
            let (t, d) = ways.remove(i);
            ways.insert(0, (t, d || dirty));
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Installs `line_addr` as MRU; returns the evicted `(line_addr, dirty)`
    /// victim if the set was full.
    fn fill(&mut self, line_addr: u64, dirty: bool) -> Option<(u64, bool)> {
        let (set, tag) = self.set_and_tag(line_addr);
        let sets = self.tags.len() as u64;
        let assoc = self.geom.assoc;
        let ways = &mut self.tags[set];
        debug_assert!(
            !ways.iter().any(|&(t, _)| t == tag),
            "fill of resident line"
        );
        ways.insert(0, (tag, dirty));
        if ways.len() > assoc {
            let (vt, vd) = ways.pop().expect("just checked length");
            Some((vt * sets + set as u64, vd))
        } else {
            None
        }
    }
}

/// Aggregate statistics of a simulated hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// L1D accesses (after line splitting).
    pub l1_accesses: u64,
    /// L1D misses.
    pub l1_misses: u64,
    /// L2 accesses (= L1 misses).
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// LLC accesses (= L2 misses).
    pub llc_accesses: u64,
    /// LLC misses (lines fetched from DRAM).
    pub llc_misses: u64,
    /// Lines written back to DRAM (dirty LLC evictions).
    pub writebacks: u64,
    /// DRAM accesses that hit an open row buffer.
    pub dram_row_hits: u64,
    /// DRAM accesses that had to open a new row ("new DRAM page" in the
    /// paper's fmi discussion).
    pub dram_row_misses: u64,
    /// L1 misses that continued a sequential stream (next line of a
    /// recent miss) — what a hardware stride prefetcher would cover.
    pub l1_seq_misses: u64,
    /// L2 misses on sequential streams.
    pub l2_seq_misses: u64,
    /// LLC misses on sequential streams.
    pub llc_seq_misses: u64,
    /// DTLB lookups (one per line-split access).
    pub tlb_accesses: u64,
    /// DTLB misses (page-walk triggers) — significant for the
    /// multi-gigabyte-working-set kernels (fmi, kmer-cnt).
    pub tlb_misses: u64,
}

impl CacheStats {
    /// L1 miss rate in `[0, 1]` (0 when there were no accesses).
    pub fn l1_miss_rate(&self) -> f64 {
        ratio(self.l1_misses, self.l1_accesses)
    }

    /// L2 local miss rate in `[0, 1]`.
    pub fn l2_miss_rate(&self) -> f64 {
        ratio(self.l2_misses, self.l2_accesses)
    }

    /// LLC local miss rate in `[0, 1]`.
    pub fn llc_miss_rate(&self) -> f64 {
        ratio(self.llc_misses, self.llc_accesses)
    }

    /// Fraction of DRAM accesses that opened a new row.
    pub fn row_miss_rate(&self) -> f64 {
        ratio(
            self.dram_row_misses,
            self.dram_row_hits + self.dram_row_misses,
        )
    }

    /// Total DRAM traffic in bytes (fills + writebacks), for the paper's
    /// BPKI metric (Fig. 6).
    pub fn dram_bytes(&self, line_bytes: usize) -> u64 {
        (self.llc_misses + self.writebacks) * line_bytes as u64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// DRAM row-buffer model: `banks` independent open rows of `row_bytes`
/// each. Address mapping: line offset | bank | row (row index above the
/// bank bits), a common open-page interleaving.
#[derive(Debug, Clone)]
struct DramModel {
    row_bytes: u64,
    open_rows: Vec<Option<u64>>,
}

impl DramModel {
    fn new(banks: usize, row_bytes: u64) -> DramModel {
        DramModel {
            row_bytes,
            open_rows: vec![None; banks],
        }
    }

    /// Returns `true` if the access hits the open row of its bank.
    fn access(&mut self, addr: u64) -> bool {
        let banks = self.open_rows.len() as u64;
        let bank = (addr / self.row_bytes) % banks;
        let row = addr / (self.row_bytes * banks);
        let slot = &mut self.open_rows[bank as usize];
        if *slot == Some(row) {
            true
        } else {
            *slot = Some(row);
            false
        }
    }
}

/// The three-level hierarchy (L1D, L2, LLC) plus DRAM model.
///
/// # Examples
///
/// ```
/// use gb_uarch::cache::Hierarchy;
/// let mut h = Hierarchy::skylake_like();
/// h.load(0x1000, 8);
/// h.load(0x1008, 8); // same line: hits L1
/// let s = h.stats();
/// assert_eq!(s.l1_accesses, 2);
/// assert_eq!(s.l1_misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: CacheLevel,
    l2: CacheLevel,
    llc: CacheLevel,
    dram: DramModel,
    stats: CacheStats,
    /// Recent miss lines, for sequential-stream (prefetchability)
    /// detection; round-robin replacement.
    streams: Vec<u64>,
    stream_cursor: usize,
    /// DTLB: LRU list of resident 4 KiB page numbers (front = MRU).
    tlb: Vec<u64>,
}

/// DTLB entries (Skylake L1 DTLB: 64 entries for 4 KiB pages).
const TLB_ENTRIES: usize = 64;
/// Page size assumed by the DTLB model.
const PAGE_BYTES: u64 = 4096;

impl Hierarchy {
    /// Builds a hierarchy from explicit geometries.
    ///
    /// All levels must share `line_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if line sizes differ or a geometry is degenerate.
    // PANIC-FREE: documented `# Panics` contract; the shipped geometries
    // share one line size.
    pub fn new(l1: CacheGeometry, l2: CacheGeometry, llc: CacheGeometry) -> Hierarchy {
        assert_eq!(l1.line_bytes, l2.line_bytes);
        assert_eq!(l2.line_bytes, llc.line_bytes);
        Hierarchy {
            l1: CacheLevel::new(l1),
            l2: CacheLevel::new(l2),
            llc: CacheLevel::new(llc),
            dram: DramModel::new(8, 8192),
            stats: CacheStats::default(),
            streams: vec![u64::MAX; 16],
            stream_cursor: 0,
            tlb: Vec::with_capacity(TLB_ENTRIES),
        }
    }

    /// The per-core hierarchy of the paper's Table I machine (Xeon
    /// E3-1240 v5, Skylake client): 32 KB 8-way L1D, 256 KB 4-way L2,
    /// 8 MB 16-way shared LLC, 64-byte lines.
    pub fn skylake_like() -> Hierarchy {
        Hierarchy::new(
            CacheGeometry {
                size_bytes: 32 << 10,
                assoc: 8,
                line_bytes: 64,
            },
            CacheGeometry {
                size_bytes: 256 << 10,
                assoc: 4,
                line_bytes: 64,
            },
            CacheGeometry {
                size_bytes: 8 << 20,
                assoc: 16,
                line_bytes: 64,
            },
        )
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.l1.geom.line_bytes
    }

    /// Simulates a read of `bytes` bytes at `addr` (split across lines as
    /// needed).
    pub fn load(&mut self, addr: u64, bytes: u32) {
        self.access(addr, bytes, false);
    }

    /// Simulates a write of `bytes` bytes at `addr`.
    pub fn store(&mut self, addr: u64, bytes: u32) {
        self.access(addr, bytes, true);
    }

    fn access(&mut self, addr: u64, bytes: u32, write: bool) {
        let line = self.line_bytes() as u64;
        let first = addr / line;
        let last = (addr + u64::from(bytes.max(1)) - 1) / line;
        for l in first..=last {
            self.access_line(l, write);
        }
    }

    /// Returns true when `line_addr` continues a recent miss stream (a
    /// stride-1 prefetcher would have fetched it), updating the stream
    /// table either way.
    fn stream_check(&mut self, line_addr: u64) -> bool {
        let sequential = if let Some(slot) = self
            .streams
            .iter_mut()
            .find(|s| line_addr == s.wrapping_add(1))
        {
            *slot = line_addr;
            true
        } else {
            let cur = self.stream_cursor;
            self.streams[cur] = line_addr;
            self.stream_cursor = (cur + 1) % self.streams.len();
            false
        };
        sequential
    }

    /// One DTLB lookup for the page containing `line_addr`'s line.
    fn tlb_access(&mut self, line_addr: u64) {
        self.stats.tlb_accesses += 1;
        let page = line_addr * self.l1.geom.line_bytes as u64 / PAGE_BYTES;
        if let Some(i) = self.tlb.iter().position(|&p| p == page) {
            let p = self.tlb.remove(i);
            self.tlb.insert(0, p);
        } else {
            self.stats.tlb_misses += 1;
            self.tlb.insert(0, page);
            self.tlb.truncate(TLB_ENTRIES);
        }
    }

    fn access_line(&mut self, line_addr: u64, write: bool) {
        self.tlb_access(line_addr);
        self.stats.l1_accesses += 1;
        if self.l1.access(line_addr, write) {
            return;
        }
        let sequential = self.stream_check(line_addr);
        self.stats.l1_misses += 1;
        self.stats.l1_seq_misses += u64::from(sequential);
        self.stats.l2_accesses += 1;
        let mut from_l2 = false;
        if self.l2.access(line_addr, false) {
            from_l2 = true;
        } else {
            self.stats.l2_misses += 1;
            self.stats.l2_seq_misses += u64::from(sequential);
            self.stats.llc_accesses += 1;
            if !self.llc.access(line_addr, false) {
                self.stats.llc_misses += 1;
                self.stats.llc_seq_misses += u64::from(sequential);
                // Fetch from DRAM.
                if self.dram.access(line_addr * self.line_bytes() as u64) {
                    self.stats.dram_row_hits += 1;
                } else {
                    self.stats.dram_row_misses += 1;
                }
                if let Some((victim, dirty)) = self.llc.fill(line_addr, false) {
                    // Inclusive LLC: back-invalidate inner levels.
                    self.invalidate_inner(victim, dirty);
                }
            }
            if let Some((victim, dirty)) = self.l2.fill(line_addr, false) {
                // Non-inclusive L2: dirty victims go to LLC.
                self.insert_llc_victim(victim, dirty);
            }
        }
        let _ = from_l2;
        if let Some((victim, dirty)) = self.l1.fill(line_addr, write) {
            if dirty {
                // Writeback into L2 (allocate there if absent).
                if !self.l2.access(victim, true) {
                    self.l2.misses -= 1; // writeback lookups are not demand misses
                    self.l2.accesses -= 1;
                    if let Some((v2, d2)) = self.l2.fill(victim, true) {
                        self.insert_llc_victim(v2, d2);
                    }
                }
            }
        }
    }

    /// Places an L2 victim into the LLC (without demand-miss accounting).
    fn insert_llc_victim(&mut self, line_addr: u64, dirty: bool) {
        if self.llc.access(line_addr, dirty) {
            self.llc.accesses -= 1;
        } else {
            self.llc.accesses -= 1;
            self.llc.misses -= 1;
            if let Some((victim, vdirty)) = self.llc.fill(line_addr, dirty) {
                self.invalidate_inner(victim, vdirty);
            }
        }
    }

    fn invalidate_inner(&mut self, line_addr: u64, dirty: bool) {
        let mut was_dirty = dirty;
        for level in [&mut self.l1, &mut self.l2] {
            let (set, tag) = level.set_and_tag(line_addr);
            if let Some(i) = level.tags[set].iter().position(|&(t, _)| t == tag) {
                let (_, d) = level.tags[set].remove(i);
                was_dirty |= d;
            }
        }
        if was_dirty {
            self.stats.writebacks += 1;
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears the statistics while keeping cache and row-buffer contents —
    /// used to measure steady-state behaviour after a warm-up pass.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

/// A [`Probe`] that simulates the hierarchy *and* records the instruction
/// mix — one instrumented kernel run produces everything Figs. 5, 6, 8
/// and 9 need.
#[derive(Debug)]
pub struct CacheProbe {
    hierarchy: Hierarchy,
    mix: MixProbe,
}

impl CacheProbe {
    /// Creates a probe over the Table I hierarchy.
    pub fn skylake_like() -> CacheProbe {
        CacheProbe {
            hierarchy: Hierarchy::skylake_like(),
            mix: MixProbe::new(),
        }
    }

    /// Cache statistics so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.hierarchy.stats()
    }

    /// Instruction mix so far.
    pub fn mix(&self) -> &InstructionMix {
        self.mix.mix()
    }

    /// Line size of the simulated hierarchy.
    pub fn line_bytes(&self) -> usize {
        self.hierarchy.line_bytes()
    }

    /// Consumes the probe, returning `(mix, cache stats)`.
    pub fn into_parts(self) -> (InstructionMix, CacheStats) {
        (self.mix.into_mix(), self.hierarchy.stats())
    }

    /// Clears mix and cache statistics but keeps cache contents warm —
    /// call after a warm-up pass so compulsory misses of the first task
    /// don't skew steady-state measurements.
    pub fn reset_stats(&mut self) {
        self.hierarchy.reset_stats();
        self.mix = MixProbe::new();
    }

    /// DRAM bytes per kilo-instruction — the paper's Fig. 6 metric.
    pub fn bpki(&self) -> f64 {
        let instr = self.mix.mix().total();
        if instr == 0 {
            return 0.0;
        }
        self.cache_stats().dram_bytes(self.line_bytes()) as f64 / (instr as f64 / 1000.0)
    }
}

impl Probe for CacheProbe {
    #[inline]
    fn load(&mut self, addr: u64, bytes: u32) {
        self.mix.load(addr, bytes);
        self.hierarchy.load(addr, bytes);
    }

    #[inline]
    fn store(&mut self, addr: u64, bytes: u32) {
        self.mix.store(addr, bytes);
        self.hierarchy.store(addr, bytes);
    }

    #[inline]
    fn int_ops(&mut self, n: u64) {
        self.mix.int_ops(n);
    }

    #[inline]
    fn fp_ops(&mut self, n: u64) {
        self.mix.fp_ops(n);
    }

    #[inline]
    fn simd_ops(&mut self, n: u64) {
        self.mix.simd_ops(n);
    }

    #[inline]
    fn branch(&mut self, taken: bool) {
        self.mix.branch(taken);
    }

    #[inline]
    fn other_ops(&mut self, n: u64) {
        self.mix.other_ops(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hierarchy {
        // 2 sets x 2 ways x 64B = 256B L1; 512B L2; 1KB LLC.
        Hierarchy::new(
            CacheGeometry {
                size_bytes: 256,
                assoc: 2,
                line_bytes: 64,
            },
            CacheGeometry {
                size_bytes: 512,
                assoc: 2,
                line_bytes: 64,
            },
            CacheGeometry {
                size_bytes: 1024,
                assoc: 2,
                line_bytes: 64,
            },
        )
    }

    #[test]
    fn repeated_access_hits_l1() {
        let mut h = tiny();
        for _ in 0..10 {
            h.load(0x40, 4);
        }
        let s = h.stats();
        assert_eq!(s.l1_accesses, 10);
        assert_eq!(s.l1_misses, 1);
        assert_eq!(s.llc_misses, 1);
    }

    #[test]
    fn line_split_counts_two_accesses() {
        let mut h = tiny();
        h.load(60, 8); // crosses the 64-byte boundary
        assert_eq!(h.stats().l1_accesses, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut h = tiny();
        // Three lines mapping to set 0 of the 2-way L1 (stride = sets*line = 128).
        h.load(0, 4);
        h.load(128, 4);
        h.load(256, 4);
        // Line 0 was LRU and must have been evicted.
        h.load(0, 4);
        let s = h.stats();
        assert_eq!(s.l1_misses, 4);
        // But line 0 still sits in L2, so no extra LLC miss for the re-fetch.
        assert_eq!(s.llc_misses, 3);
    }

    #[test]
    fn dirty_lines_write_back_to_dram() {
        let mut h = tiny();
        // Write a line, then stream enough conflicting lines through every
        // level to force it all the way out.
        h.store(0, 4);
        for i in 1..64u64 {
            h.load(i * 128, 4);
        }
        assert!(
            h.stats().writebacks >= 1,
            "dirty line never reached DRAM: {:?}",
            h.stats()
        );
    }

    #[test]
    fn streaming_misses_every_line() {
        let mut h = Hierarchy::skylake_like();
        for i in 0..1000u64 {
            h.load(i * 64, 8);
        }
        let s = h.stats();
        assert_eq!(s.l1_misses, 1000);
        assert_eq!(s.llc_misses, 1000);
        // Sequential lines share DRAM rows: mostly row hits.
        assert!(s.dram_row_hits > s.dram_row_misses);
    }

    #[test]
    fn random_large_stride_misses_rows() {
        let mut h = Hierarchy::skylake_like();
        let mut x = 12345u64;
        for _ in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (x >> 16) % (1 << 34); // ~16 GB working set
            h.load(addr, 8);
        }
        let s = h.stats();
        assert!(
            s.row_miss_rate() > 0.8,
            "row miss rate {}",
            s.row_miss_rate()
        );
    }

    #[test]
    fn probe_computes_bpki() {
        let mut p = CacheProbe::skylake_like();
        for i in 0..1000u64 {
            p.load(i * 64, 8);
            p.int_ops(9);
        }
        // 1000 lines * 64B over 10k instructions = 6400 B/Kinst.
        let bpki = p.bpki();
        assert!((bpki - 6400.0).abs() < 1.0, "bpki = {bpki}");
    }

    #[test]
    fn stats_zero_safe() {
        let s = CacheStats::default();
        assert_eq!(s.l1_miss_rate(), 0.0);
        assert_eq!(s.row_miss_rate(), 0.0);
    }
}
