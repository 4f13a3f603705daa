//! Warm substrate cache for the suite's prepare phase.
//!
//! Every kernel's `prepare` splits into a deterministic, cacheable
//! *substrate build* (genome generation, FM-index construction, NN weight
//! initialization, …) and a cheap per-run *instantiation* (engine choice,
//! task ordering). This crate holds the machinery that makes the build
//! half reusable:
//!
//! * [`codec`] — a dependency-free length-checked binary serializer.
//!   Floats round-trip through their bit patterns, so a decoded substrate
//!   is bit-identical to the built one and run checksums cannot drift.
//! * [`memo`] — an in-process map of `Arc`-shared substrates, so repeated
//!   runs (compare loops, benches, a future server) inside one process
//!   build each substrate once.
//! * [`store`] — a content-addressed on-disk store (`--substrate-cache`)
//!   with atomic temp+rename writes, checksum-verified loads and
//!   size-capped eviction, so warm starts survive across processes.
//!
//! [`SubstrateCache`] layers the three: memo hit, then disk hit, then
//! build (and back-fill both). Corrupt, truncated or wrong-schema disk
//! entries are never trusted — they decode to `None` and the substrate is
//! silently rebuilt.

#![forbid(unsafe_code)]

pub mod codec;
pub mod memo;
pub mod store;

pub use codec::{Codec, Decoder, Encoder};
pub use memo::Memo;
pub use store::DiskStore;

use std::path::Path;
use std::sync::Arc;

/// On-disk substrate format version. Bump whenever any substrate's
/// encoded layout changes; entries written under another substrate schema
/// version are ignored and rebuilt, never migrated.
pub const SUBSTRATE_SCHEMA: u32 = 1;

/// Identity of one cached substrate: which kernel, which dataset tier,
/// which generation seed, and which encoding schema. Two runs with equal
/// keys are guaranteed (by dataset determinism) to build bit-identical
/// substrates, which is what makes sharing them safe.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SubstrateKey {
    /// Kernel short name (e.g. `"fmi"`).
    pub kernel: String,
    /// Dataset tier name (e.g. `"tiny"`).
    pub tier: String,
    /// The seed(s) folded into one value; part of the content address so
    /// a seed change invalidates the entry.
    pub seed: u64,
    /// The substrate encoding schema ([`SUBSTRATE_SCHEMA`]).
    pub schema: u32,
}

impl SubstrateKey {
    /// Creates a key under the current [`SUBSTRATE_SCHEMA`].
    pub fn new(kernel: &str, tier: &str, seed: u64) -> SubstrateKey {
        SubstrateKey {
            kernel: kernel.to_string(),
            tier: tier.to_string(),
            seed,
            schema: SUBSTRATE_SCHEMA,
        }
    }

    /// The canonical string form, used as the memo key and the disk file
    /// stem: `<kernel>-<tier>-<seed:016x>-v<schema>`.
    pub fn canonical(&self) -> String {
        format!(
            "{}-{}-{:016x}-v{}",
            self.kernel, self.tier, self.seed, self.schema
        )
    }
}

/// Where a substrate came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Reused from the in-process memo.
    Memo,
    /// Loaded and checksum-verified from the on-disk store.
    Disk,
    /// Built from scratch (cold, caching disabled, or a bad disk entry).
    Built,
}

impl CacheOutcome {
    /// Whether the substrate was obtained without building it.
    pub fn is_hit(self) -> bool {
        !matches!(self, CacheOutcome::Built)
    }
}

/// The layered substrate cache: in-process memo over an optional on-disk
/// store. Cheap to construct; share one per process (or per run) and call
/// [`SubstrateCache::get_or_build`] from any thread.
pub struct SubstrateCache {
    enabled: bool,
    memo: Memo,
    store: Option<DiskStore>,
}

impl SubstrateCache {
    /// Memo-only cache: substrates are shared within the process but
    /// nothing touches disk.
    pub fn in_process() -> SubstrateCache {
        SubstrateCache {
            enabled: true,
            memo: Memo::new(),
            store: None,
        }
    }

    /// Memo plus on-disk store rooted at `dir` (created if missing).
    pub fn with_store(dir: &Path) -> std::io::Result<SubstrateCache> {
        Ok(SubstrateCache {
            enabled: true,
            memo: Memo::new(),
            store: Some(DiskStore::open(dir)?),
        })
    }

    /// A cache that never reuses anything (`--no-cache`): every
    /// `get_or_build` builds.
    pub fn disabled() -> SubstrateCache {
        SubstrateCache {
            enabled: false,
            memo: Memo::new(),
            store: None,
        }
    }

    /// Whether lookups can ever hit.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Returns the substrate for `key`, building it with `build` only on
    /// a miss. Lookup order: memo, then disk (verified and memoized),
    /// then build (memoized and written back to disk). Disk entries that
    /// fail any check — magic, schema, key, checksum, payload decode —
    /// are treated as absent and rebuilt; a failed write-back never fails
    /// the run.
    pub fn get_or_build<T, F>(&self, key: &SubstrateKey, build: F) -> (Arc<T>, CacheOutcome)
    where
        T: Codec + Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        if !self.enabled {
            return (Arc::new(build()), CacheOutcome::Built);
        }
        let memo_key = key.canonical();
        if let Some(arc) = self.memo.get::<T>(&memo_key) {
            return (arc, CacheOutcome::Memo);
        }
        if let Some(store) = &self.store {
            if let Some(payload) = store.load(key) {
                if let Some(value) = T::from_bytes(&payload) {
                    let arc = Arc::new(value);
                    self.memo.insert(&memo_key, arc.clone());
                    return (arc, CacheOutcome::Disk);
                }
                // Verified container, undecodable payload: a substrate
                // layout changed without a schema bump. Fall through and
                // rebuild; the save below overwrites the stale entry.
            }
        }
        let arc = Arc::new(build());
        self.memo.insert(&memo_key, arc.clone());
        if let Some(store) = &self.store {
            let _ = store.save(key, &arc.to_bytes());
        }
        (arc, CacheOutcome::Built)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gb_substrate_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn memo_hits_within_process() {
        let cache = SubstrateCache::in_process();
        let key = SubstrateKey::new("fmi", "tiny", 7);
        let (a, o1) = cache.get_or_build(&key, || vec![1u64, 2, 3]);
        let (b, o2) = cache.get_or_build(&key, || panic!("must not rebuild"));
        assert_eq!(o1, CacheOutcome::Built);
        assert_eq!(o2, CacheOutcome::Memo);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn disk_hits_across_cache_instances() {
        let dir = tmp_dir("disk");
        let key = SubstrateKey::new("bsw", "tiny", 9);
        let cold = SubstrateCache::with_store(&dir).unwrap();
        let (a, o1) = cold.get_or_build(&key, || vec![5u32; 100]);
        assert_eq!(o1, CacheOutcome::Built);
        // A fresh cache (new process, in effect) loads from disk.
        let warm = SubstrateCache::with_store(&dir).unwrap();
        let (b, o2) = warm.get_or_build::<Vec<u32>, _>(&key, || panic!("must hit disk"));
        assert_eq!(o2, CacheOutcome::Disk);
        assert_eq!(*a, *b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = SubstrateCache::in_process();
        let (a, _) = cache.get_or_build(&SubstrateKey::new("fmi", "tiny", 1), || 10u64);
        let (b, _) = cache.get_or_build(&SubstrateKey::new("fmi", "tiny", 2), || 20u64);
        let (c, _) = cache.get_or_build(&SubstrateKey::new("fmi", "small", 1), || 30u64);
        assert_eq!((*a, *b, *c), (10, 20, 30));
    }

    #[test]
    fn disabled_cache_always_builds() {
        let cache = SubstrateCache::disabled();
        let key = SubstrateKey::new("grm", "tiny", 3);
        let (_, o1) = cache.get_or_build(&key, || 1u64);
        let (_, o2) = cache.get_or_build(&key, || 2u64);
        assert_eq!(o1, CacheOutcome::Built);
        assert_eq!(o2, CacheOutcome::Built);
        assert!(!o2.is_hit());
    }

    #[test]
    fn schema_mismatch_rebuilds() {
        let dir = tmp_dir("schema");
        let mut key = SubstrateKey::new("chain", "tiny", 4);
        let cache = SubstrateCache::with_store(&dir).unwrap();
        let _ = cache.get_or_build(&key, || vec![1u8, 2, 3]);
        // Same file name would differ too, but force the point: a key
        // under another schema version never matches the stored entry.
        key.schema += 1;
        let fresh = SubstrateCache::with_store(&dir).unwrap();
        let (_, o) = fresh.get_or_build(&key, || vec![9u8]);
        assert_eq!(o, CacheOutcome::Built);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
