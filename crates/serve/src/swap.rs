//! Live epoch hot-swap: the serving state behind an atomically
//! swappable handle, plus the background manager that rebuilds it.
//!
//! The protocol is publish-subscribe over an [`Arc`] (std-only — an
//! `RwLock<Arc<_>>` whose write critical section is a single pointer
//! store): every request loads the current [`ServeEpoch`] once and
//! serves entirely from that snapshot, so a swap mid-connection is
//! invisible — in-flight requests finish against the old epoch's bytes,
//! the next request on the same connection picks up the new one. Nothing
//! is ever invalidated in place; the old epoch's cache stays byte-exact
//! until its last reader drops it.
//!
//! The [`EpochManager`] owns the long-lived [`Epoch`] and the store
//! directory. `POST /admin/epoch` (or `webstruct serve --watch`) calls
//! [`EpochManager::begin_swap`], which runs `Epoch::mutate` + the
//! dirty-slice recompute on a detached thread and publishes the rebuilt
//! state without dropping connections. At most one swap runs at a time
//! (`409 swap_in_progress` otherwise); a failed rebuild publishes
//! nothing, so the server keeps answering from the last good epoch, and
//! is reported on stderr and counted in `serve.swap_failures`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::cache::ResponseCache;
use crate::state::ServeState;
use webstruct_core::epoch::Epoch;
use webstruct_util::{obs, Seed};

/// One published epoch: the immutable state, its pre-rendered response
/// cache, and the validator every 200 in this epoch is stamped with.
pub struct ServeEpoch {
    /// The warm serving state.
    pub state: Arc<ServeState>,
    /// The per-epoch response cache.
    pub cache: ResponseCache,
    /// The entity validator: `"{epoch}-{digest16}"`, quoted. Derived
    /// from the epoch output digest, so two epochs serving different
    /// bytes can never share a tag.
    pub etag: Arc<str>,
    /// The epoch counter (mirrors `report.epoch`).
    pub version: u64,
}

impl ServeEpoch {
    /// Wrap freshly built state: derive the ETag and pre-render the
    /// cache.
    #[must_use]
    pub fn new(state: Arc<ServeState>) -> Self {
        let version = u64::from(state.report.epoch);
        let etag: Arc<str> =
            Arc::from(format!("\"{}-{}\"", version, &state.report.digest_hex()[..16]));
        let cache = ResponseCache::build(&state);
        ServeEpoch {
            state,
            cache,
            etag,
            version,
        }
    }
}

/// The swappable handle the server and every worker share.
pub struct SharedServing {
    current: RwLock<Arc<ServeEpoch>>,
    swaps: AtomicU64,
}

impl SharedServing {
    /// Wrap the boot epoch.
    #[must_use]
    pub fn new(epoch: ServeEpoch) -> Self {
        SharedServing {
            current: RwLock::new(Arc::new(epoch)),
            swaps: AtomicU64::new(0),
        }
    }

    /// Snapshot the current epoch. One load per request; the returned
    /// `Arc` keeps that epoch's bytes alive for the response even if a
    /// swap lands mid-flight.
    #[must_use]
    pub fn load(&self) -> Arc<ServeEpoch> {
        self.current
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Publish a new epoch (the swap point) and bump the swap counter.
    pub fn publish(&self, epoch: ServeEpoch) {
        let next = Arc::new(epoch);
        *self
            .current
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = next;
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// How many swaps have been published since boot.
    #[must_use]
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

/// Owns the long-lived [`Epoch`] and rebuilds serving state from it in
/// the background.
pub struct EpochManager {
    epoch: Mutex<Epoch>,
    dir: PathBuf,
    threads: usize,
    in_flight: AtomicBool,
}

impl EpochManager {
    /// Take ownership of the epoch the server booted from.
    #[must_use]
    pub fn new(epoch: Epoch, dir: PathBuf, threads: usize) -> Self {
        EpochManager {
            epoch: Mutex::new(epoch),
            dir,
            threads,
            in_flight: AtomicBool::new(false),
        }
    }

    /// Start a background mutate-and-rebuild, publishing into `shared`
    /// on success. Returns `false` (and does nothing) if a swap is
    /// already in flight — the caller answers `409`.
    pub fn begin_swap(
        self: &Arc<Self>,
        shared: &Arc<SharedServing>,
        fraction_bp: u64,
        seed: u64,
    ) -> bool {
        if self.in_flight.swap(true, Ordering::AcqRel) {
            return false;
        }
        let mgr = Arc::clone(self);
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("epoch-swap".into())
            .spawn(move || {
                let _span = webstruct_util::span!("serve.swap", fraction_bp);
                let mut epoch = mgr
                    .epoch
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                #[allow(clippy::cast_precision_loss)]
                let fraction = fraction_bp as f64 / 10_000.0;
                epoch.mutate(fraction, Seed(seed));
                // The dirty-slice recompute: only mutated sites re-run.
                match ServeState::from_epoch(&epoch, &mgr.dir, mgr.threads) {
                    Ok(state) => shared.publish(ServeEpoch::new(Arc::new(state))),
                    Err(e) => {
                        // Keep serving the last good epoch. The mutated
                        // Epoch stays; a retry will re-run its dirty
                        // slice. The counter is registered only here, so
                        // a run without failures keeps its metrics keys.
                        eprintln!(
                            "serve: hot swap to epoch {} failed, still serving the last \
                             good epoch: {e}",
                            epoch.epoch()
                        );
                        obs::metrics().add("serve.swap_failures", 1);
                    }
                }
                drop(epoch);
                mgr.in_flight.store(false, Ordering::Release);
            })
            .expect("spawn epoch-swap thread");
        true
    }

    /// Whether a swap is currently running.
    #[must_use]
    pub fn swap_in_flight(&self) -> bool {
        self.in_flight.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_core::study::StudyConfig;
    use webstruct_corpus::domain::Domain;
    use webstruct_util::TempDir;

    /// Serving state plus its swap manager; the returned [`TempDir`] holds
    /// the epoch store the manager rebuilds into, so keep it alive.
    fn boot(tag: &str) -> (Arc<SharedServing>, Arc<EpochManager>, TempDir) {
        let dir = TempDir::new(&format!("serve-swap-{tag}"));
        let config = StudyConfig::quick().with_scale(0.02).with_seed(Seed(4));
        let epoch = Epoch::new(Domain::Restaurants, config);
        let state = ServeState::from_epoch(&epoch, &dir, 2).unwrap();
        let shared = Arc::new(SharedServing::new(ServeEpoch::new(Arc::new(state))));
        let mgr = Arc::new(EpochManager::new(epoch, dir.to_path_buf(), 2));
        (shared, mgr, dir)
    }

    #[test]
    fn swap_publishes_a_new_versioned_epoch() {
        let (shared, mgr, _dir) = boot("publish");
        let before = shared.load();
        assert_eq!(shared.swaps(), 0);
        assert!(mgr.begin_swap(&shared, 100, 7));
        // A second swap while one is in flight is refused...
        // (the rebuild takes long enough that this races reliably; if it
        // already finished, begin_swap legitimately returns true, so only
        // assert the final state).
        while mgr.swap_in_flight() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let after = shared.load();
        assert_eq!(shared.swaps(), 1);
        assert_eq!(after.version, before.version + 1);
        assert_ne!(after.etag, before.etag);
        // The old snapshot is still fully usable.
        assert!(before.cache.lookup(&before.state, "/coverage").is_some());
    }

    #[test]
    fn a_failed_swap_is_counted_and_the_last_good_epoch_stays() {
        let (shared, mgr, dir) = boot("failed");
        let before = shared.load();
        let failures = obs::metrics().counter("serve.swap_failures");
        let failed_before = failures.get();
        // Another run holds the store, so the rebuild cannot take it.
        let lock = std::fs::File::open(dir.join("LOCK")).expect("the boot run left a LOCK");
        lock.lock().expect("take the store lock");
        assert!(mgr.begin_swap(&shared, 100, 7), "the swap starts");
        while mgr.swap_in_flight() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(shared.swaps(), 0, "nothing is published");
        assert_eq!(shared.load().version, before.version);
        assert_eq!(shared.load().etag, before.etag);
        assert_eq!(failures.get(), failed_before + 1, "one failure counted");
    }
}
