//! Instrumentation probes.
//!
//! GenomicsBench characterizes its kernels with a binary-instrumentation
//! pintool (MICA) and hardware performance counters. This environment has
//! neither, so the suite compiles the instrumentation *into* the kernels:
//! every kernel is generic over a [`Probe`] and reports its dynamic
//! operations (loads, stores, scalar/vector/float ALU ops, branches) at the
//! points where the corresponding machine operations would occur.
//!
//! With [`NullProbe`] every probe call is an empty inlined function, so the
//! timed benchmark path pays nothing. With a recording probe
//! ([`crate::mix::MixProbe`], [`crate::cache::CacheProbe`]) the same kernel
//! run yields the instruction mix of Fig. 5 and feeds the cache simulator
//! behind Figs. 6/8/9.
//!
//! Addresses passed to `load`/`store` are real heap addresses of the
//! kernel's data structures (obtained from references via pointer casts —
//! no unsafe code), so spatial locality seen by the cache simulator is the
//! locality of the actual Rust data layout.

/// Sink for the dynamic operation stream of an instrumented kernel.
///
/// The default methods make every event optional: a probe interested only
/// in memory traffic overrides `load`/`store` and ignores the rest.
pub trait Probe {
    /// A memory read of `bytes` bytes at virtual address `addr`.
    #[inline(always)]
    fn load(&mut self, addr: u64, bytes: u32) {
        let _ = (addr, bytes);
    }

    /// A memory write of `bytes` bytes at virtual address `addr`.
    #[inline(always)]
    fn store(&mut self, addr: u64, bytes: u32) {
        let _ = (addr, bytes);
    }

    /// `n` scalar integer ALU operations.
    #[inline(always)]
    fn int_ops(&mut self, n: u64) {
        let _ = n;
    }

    /// `n` scalar floating-point operations.
    #[inline(always)]
    fn fp_ops(&mut self, n: u64) {
        let _ = n;
    }

    /// `n` SIMD/vector operations (one event per *vector* instruction, not
    /// per lane).
    #[inline(always)]
    fn simd_ops(&mut self, n: u64) {
        let _ = n;
    }

    /// A conditional branch; `taken` is its outcome.
    #[inline(always)]
    fn branch(&mut self, taken: bool) {
        let _ = taken;
    }

    /// `n` operations outside the other categories (string ops, sync,
    /// system interaction) — the paper's "Other" bucket.
    #[inline(always)]
    fn other_ops(&mut self, n: u64) {
        let _ = n;
    }
}

/// The do-nothing probe used on the timed path.
///
/// # Examples
///
/// ```
/// use gb_uarch::probe::{NullProbe, Probe};
/// let mut p = NullProbe;
/// p.load(0x1000, 8); // compiles to nothing
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {}

/// A borrowed probe is a probe, so a caller's probe can sit in a [`Tee`]
/// for part of a run.
impl<P: Probe + ?Sized> Probe for &mut P {
    #[inline(always)]
    fn load(&mut self, addr: u64, bytes: u32) {
        (**self).load(addr, bytes);
    }

    #[inline(always)]
    fn store(&mut self, addr: u64, bytes: u32) {
        (**self).store(addr, bytes);
    }

    #[inline(always)]
    fn int_ops(&mut self, n: u64) {
        (**self).int_ops(n);
    }

    #[inline(always)]
    fn fp_ops(&mut self, n: u64) {
        (**self).fp_ops(n);
    }

    #[inline(always)]
    fn simd_ops(&mut self, n: u64) {
        (**self).simd_ops(n);
    }

    #[inline(always)]
    fn branch(&mut self, taken: bool) {
        (**self).branch(taken);
    }

    #[inline(always)]
    fn other_ops(&mut self, n: u64) {
        (**self).other_ops(n);
    }
}

/// Returns the virtual address of a referenced value, for feeding
/// [`Probe::load`]/[`Probe::store`].
///
/// # Examples
///
/// ```
/// use gb_uarch::probe::addr_of;
/// let v = vec![1u32, 2, 3];
/// assert_eq!(addr_of(&v[1]) - addr_of(&v[0]), 4);
/// ```
#[inline(always)]
pub fn addr_of<T>(r: &T) -> u64 {
    r as *const T as u64
}

/// Reports one read covering all of `xs`. An empty slice has no address
/// and is no event.
///
/// # Examples
///
/// ```
/// use gb_uarch::{mix::MixProbe, probe::load_slice};
/// let mut p = MixProbe::new();
/// load_slice(&mut p, &[1.0f32, 2.0]);
/// load_slice(&mut p, &[0u8; 0]);
/// assert_eq!(p.mix().loads, 1);
/// ```
#[inline(always)]
pub fn load_slice<P: Probe, T>(probe: &mut P, xs: &[T]) {
    if let Some(first) = xs.first() {
        probe.load(addr_of(first), std::mem::size_of_val(xs) as u32);
    }
}

/// Chains two probes so one instrumented run can feed several collectors.
#[derive(Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Probe, B: Probe> Probe for Tee<A, B> {
    #[inline(always)]
    fn load(&mut self, addr: u64, bytes: u32) {
        self.0.load(addr, bytes);
        self.1.load(addr, bytes);
    }

    #[inline(always)]
    fn store(&mut self, addr: u64, bytes: u32) {
        self.0.store(addr, bytes);
        self.1.store(addr, bytes);
    }

    #[inline(always)]
    fn int_ops(&mut self, n: u64) {
        self.0.int_ops(n);
        self.1.int_ops(n);
    }

    #[inline(always)]
    fn fp_ops(&mut self, n: u64) {
        self.0.fp_ops(n);
        self.1.fp_ops(n);
    }

    #[inline(always)]
    fn simd_ops(&mut self, n: u64) {
        self.0.simd_ops(n);
        self.1.simd_ops(n);
    }

    #[inline(always)]
    fn branch(&mut self, taken: bool) {
        self.0.branch(taken);
        self.1.branch(taken);
    }

    #[inline(always)]
    fn other_ops(&mut self, n: u64) {
        self.0.other_ops(n);
        self.1.other_ops(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct CountLoads(u64);

    impl Probe for CountLoads {
        fn load(&mut self, _addr: u64, _bytes: u32) {
            self.0 += 1;
        }
    }

    #[test]
    fn default_methods_are_noops() {
        let mut p = CountLoads::default();
        p.store(0, 8);
        p.int_ops(5);
        p.branch(true);
        assert_eq!(p.0, 0);
        p.load(0, 8);
        assert_eq!(p.0, 1);
    }

    #[test]
    fn tee_fans_out() {
        let mut t = Tee(CountLoads::default(), CountLoads::default());
        t.load(0x10, 4);
        t.load(0x20, 4);
        assert_eq!(t.0 .0, 2);
        assert_eq!(t.1 .0, 2);
    }

    #[test]
    fn tee_fans_out_to_a_borrowed_probe() {
        let mut callers = CountLoads::default();
        let mut t = Tee(CountLoads::default(), &mut callers);
        t.load(0x10, 4);
        t.int_ops(3);
        assert_eq!(t.0 .0, 1);
        assert_eq!(callers.0, 1);
    }

    #[test]
    fn addr_of_is_monotonic_within_vec() {
        let v = [0u64; 4];
        assert_eq!(addr_of(&v[3]) - addr_of(&v[0]), 24);
    }
}
