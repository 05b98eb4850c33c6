//! Incremental recomputation bench: the warm/cold cost ratio behind
//! `BENCH_incremental.json`.
//!
//! The measurement cycle (repeated best-of-`REPS` like the durability
//! bench, since both sides of the ratio are short wall-clock intervals):
//!
//! 1. **Populate** a store at epoch 0 — everything renders and extracts,
//!    and every shard's extraction snapshot lands in the
//!    content-addressed cache (`ext-*.wse`).
//! 2. **Mutate** a fraction of the corpus's sites (seed-pure).
//! 3. **Warm run** on the populated store: only the dirty shard slice
//!    re-renders and re-extracts; clean shards replay from cache.
//! 4. **Cold oracle** at the *mutated* state in a wiped directory: the
//!    denominator of `incremental_cost_fraction`, and the byte-identity
//!    oracle — the warm run's output digest must equal the cold one's.
//!
//! The acceptance target is `incremental_cost_fraction <= 0.05` after a
//! 1% mutation (gated by `bench_gate.sh`; warn by default, hard in
//! strict mode). A digest mismatch is a determinism violation and fails
//! the gate in any mode.

use std::time::Instant;
use webstruct_core::epoch::Epoch;
use webstruct_core::study::StudyConfig;
use webstruct_corpus::domain::Domain;
use webstruct_util::rng::Seed;
use webstruct_util::TempDir;

/// Everything `BENCH_incremental.json` records.
#[derive(Debug, Clone)]
pub struct IncrementalReport {
    /// Corpus scale of the measurement.
    pub scale: f64,
    /// Shard payload target in bytes (small, so the dirty slice is a
    /// small fraction of the shard count).
    pub shard_bytes: u64,
    /// Fraction of sites mutated between the populate and the warm run.
    pub mutation_fraction: f64,
    /// Worker threads used by every run.
    pub threads: usize,
    /// Shards in the store.
    pub n_shards: usize,
    /// Sites the mutation dirtied.
    pub sites_mutated: usize,
    /// Shards the warm run re-rendered (the dirty slice).
    pub shards_stale: usize,
    /// Clean shards whose extraction replayed from cache on the warm run.
    pub cache_hits: usize,
    /// Shards the warm run re-extracted.
    pub cache_misses: usize,
    /// Seconds for the cold run at the mutated state (best of reps).
    pub cold_secs: f64,
    /// Seconds for the warm run at the mutated state (best of reps).
    pub warm_secs: f64,
    /// `warm_secs / cold_secs` — the headline number, gated at 0.05.
    pub incremental_cost_fraction: f64,
    /// Whether every rep's warm output digest equalled its cold oracle's.
    pub byte_identical: bool,
    /// The (shared) output digest of the final rep, as hex.
    pub output_digest: String,
}

impl IncrementalReport {
    /// Render the report as a stable, hand-rolled JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"scale\": {},\n  \"shard_bytes\": {},\n  \
             \"mutation_fraction\": {},\n  \"threads\": {},\n  \
             \"n_shards\": {},\n  \"sites_mutated\": {},\n  \
             \"shards_stale\": {},\n  \"cache_hits\": {},\n  \
             \"cache_misses\": {},\n  \"cold_secs\": {:.6},\n  \
             \"warm_secs\": {:.6},\n  \"incremental_cost_fraction\": {:.6},\n  \
             \"byte_identical\": {},\n  \"output_digest\": \"{}\"\n}}\n",
            self.scale,
            self.shard_bytes,
            self.mutation_fraction,
            self.threads,
            self.n_shards,
            self.sites_mutated,
            self.shards_stale,
            self.cache_hits,
            self.cache_misses,
            self.cold_secs,
            self.warm_secs,
            self.incremental_cost_fraction,
            self.byte_identical,
            self.output_digest,
        )
    }
}

/// Run the incremental bench: populate, mutate `fraction` of sites, and
/// measure the warm re-run against a cold run at the same mutated state.
///
/// # Panics
/// Panics if any epoch run fails — the bench runs on a clean temp
/// directory, so a failure is a pipeline bug, not an environment issue.
#[must_use]
pub fn run_incremental_bench(
    scale: f64,
    shard_bytes: u64,
    fraction: f64,
    threads: usize,
) -> IncrementalReport {
    let warm_dir = TempDir::new("bench-incremental-warm");
    let cold_dir = TempDir::new("bench-incremental-cold");
    const REPS: usize = 3;

    let mut cold_secs = f64::INFINITY;
    let mut warm_secs = f64::INFINITY;
    let mut byte_identical = true;
    let mut last = None;
    for rep in 0..REPS {
        // A fresh Epoch each rep so the mutation applies to a pristine
        // revision state; the dirty set is seed-pure, so every rep
        // measures the identical workload.
        let mut epoch = Epoch::new(Domain::Restaurants, StudyConfig::default().with_scale(scale))
            .with_shard_bytes(shard_bytes);
        let _ = std::fs::remove_dir_all(&warm_dir);
        epoch
            .run(&warm_dir, threads)
            .expect("epoch-0 populate run");
        let mutated = epoch.mutate(fraction, Seed(11));

        let t0 = Instant::now();
        let warm = epoch.run(&warm_dir, threads).expect("warm run");
        warm_secs = warm_secs.min(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        let cold = epoch.run_cold(&cold_dir, threads).expect("cold oracle");
        cold_secs = cold_secs.min(t1.elapsed().as_secs_f64());

        if warm.output_digest != cold.output_digest {
            eprintln!(
                "  DETERMINISM VIOLATION in rep {rep}: warm {} != cold {}",
                warm.digest_hex(),
                cold.digest_hex()
            );
            byte_identical = false;
        }
        last = Some((mutated, warm));
    }
    let (sites_mutated, warm) = last.expect("at least one rep");

    IncrementalReport {
        scale,
        shard_bytes,
        mutation_fraction: fraction,
        threads,
        n_shards: warm.recovery.shards_total,
        sites_mutated,
        shards_stale: warm.recovery.shards_stale,
        cache_hits: warm.cache_hits,
        cache_misses: warm.cache_misses,
        cold_secs,
        warm_secs,
        incremental_cost_fraction: if cold_secs > 0.0 {
            warm_secs / cold_secs
        } else {
            0.0
        },
        byte_identical,
        output_digest: warm.digest_hex(),
    }
}
