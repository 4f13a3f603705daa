//! Golden pin of what the three `dense` kernels *report to a probe*: for
//! every tiny-tier task of grm, nn-base and nn-variant, the
//! [`InstructionMix`] a `MixProbe` records, the bytes loaded and stored,
//! and a hash of the event sequence (kind and size, no addresses — those
//! are heap addresses and differ per run). These are the inputs of the
//! simulated characterization (Figs. 5/6/8/9), so a rewrite of how the
//! arithmetic is ordered must leave every line here unchanged, next to
//! `task_out_golden`'s checksums.

use gb_suite::kernels::grm::GrmKernel;
use gb_suite::kernels::nnbase::NnBaseKernel;
use gb_suite::kernels::nnvariant::NnVariantKernel;
use gb_suite::kernels::{DpEngine, KernelSpec};
use gb_suite::DatasetSize;
use gb_uarch::mix::MixProbe;
use gb_uarch::probe::{Probe, Tee};

/// Bytes moved and an FNV-1a fold over `(event kind, size)` in order.
struct Traffic {
    load_bytes: u64,
    store_bytes: u64,
    sequence: u64,
}

impl Traffic {
    fn new() -> Traffic {
        Traffic {
            load_bytes: 0,
            store_bytes: 0,
            sequence: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn event(&mut self, kind: u64, n: u64) {
        for word in [kind, n] {
            self.sequence = (self.sequence ^ word).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl Probe for Traffic {
    fn load(&mut self, _addr: u64, bytes: u32) {
        self.load_bytes += u64::from(bytes);
        self.event(0, u64::from(bytes));
    }

    fn store(&mut self, _addr: u64, bytes: u32) {
        self.store_bytes += u64::from(bytes);
        self.event(1, u64::from(bytes));
    }

    fn int_ops(&mut self, n: u64) {
        self.event(2, n);
    }

    fn fp_ops(&mut self, n: u64) {
        self.event(3, n);
    }

    fn simd_ops(&mut self, n: u64) {
        self.event(4, n);
    }

    fn branch(&mut self, taken: bool) {
        self.event(5, u64::from(taken));
    }

    fn other_ops(&mut self, n: u64) {
        self.event(6, n);
    }
}

/// One line per task of `K` at the tiny tier.
fn probe_lines<K: KernelSpec>(out: &mut String) {
    let kernel = K::prepare(DatasetSize::Tiny, DpEngine::Scalar);
    for i in 0..kernel.num_tasks() {
        let mut probe = Tee(MixProbe::new(), Traffic::new());
        kernel.task(i, &mut probe);
        let Tee(mix, traffic) = probe;
        let m = mix.into_mix();
        out.push_str(&format!(
            "{} task {i} loads={} stores={} int={} fp={} simd={} branches={} taken={} other={} \
             load_bytes={} store_bytes={} sequence={:#018x}\n",
            K::META.name,
            m.loads,
            m.stores,
            m.int_ops,
            m.fp_ops,
            m.simd_ops,
            m.branches,
            m.branches_taken,
            m.other,
            traffic.load_bytes,
            traffic.store_bytes,
            traffic.sequence,
        ));
    }
}

#[test]
fn dense_probe_counts_are_pinned() {
    let mut actual = String::new();
    probe_lines::<GrmKernel>(&mut actual);
    probe_lines::<NnBaseKernel>(&mut actual);
    probe_lines::<NnVariantKernel>(&mut actual);
    assert_eq!(
        actual,
        include_str!("golden/probe_counts.txt"),
        "\n{actual}"
    );
}
