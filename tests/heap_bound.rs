//! Live-heap guard for `run_all`: a run holds one domain per busy worker,
//! never all nine.
//!
//! This binary installs [`TrackingAlloc`] as its global allocator, which
//! keeps the bytes live right now and the most live at once. At one
//! worker thread, `run_all` over extracted data must peak within
//! [`RUN_OVER_DOMAIN_BOUND`] times the largest single-domain peak:
//! generating one domain, extracting it and building its graphs. A run
//! that kept every domain until it returned peaks at the nine-domain
//! sum, about 5× the largest domain at the quick scale.
//!
//! The file contains exactly one `#[test]` on purpose: parallel tests in
//! the same binary would pollute the process-global counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use webstruct::core::runner::run_all;
use webstruct::core::study::{DataSource, DomainStudy, StudyConfig};
use webstruct::corpus::domain::{Attribute, Domain};
use webstruct::graph::BipartiteGraph;
use webstruct::util::par;

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most bytes [`LIVE`] has held at once since the last [`measure`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// System allocator wrapper that tracks live and peak heap bytes.
struct TrackingAlloc;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: defers entirely to `System`; the counters are a side effect.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Run `f` and return its result plus the most heap bytes live at once
/// during it, over what was live when it started.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

/// How far `run_all`'s peak live heap may rise over the largest
/// single-domain peak. A run at one worker holds one domain at a time,
/// plus the traffic studies and the finished artifacts; measured at
/// 1.08× at the quick scale, against 5.25× when every domain lived until the run
/// returned.
const RUN_OVER_DOMAIN_BOUND: f64 = 2.5;

#[test]
fn run_all_holds_one_domain_at_a_time() {
    std::env::set_var(par::THREADS_ENV, "1");
    let config = StudyConfig::quick().with_source(DataSource::Extracted);

    let mut largest = (Domain::Restaurants, 0);
    for domain in Domain::ALL {
        let ((), peak) = measure(|| {
            let built = DomainStudy::generate(domain, &config);
            for &attr in domain.attributes() {
                let lists = built.occurrence_lists(attr, &config);
                if attr != Attribute::Review {
                    let graph = BipartiteGraph::from_occurrences(built.catalog.len(), &lists)
                        .expect("generated ids are in range");
                    assert!(graph.n_entities() > 0);
                }
            }
        });
        if peak > largest.1 {
            largest = (domain, peak);
        }
    }

    let (out, run_peak) = measure(|| run_all(&config));
    assert!(out.is_complete(), "failures: {:?}", out.failures);
    let ratio = run_peak as f64 / largest.1 as f64;
    eprintln!(
        "run_all peak {run_peak} B, largest domain {:?} {} B, ratio {ratio:.2}",
        largest.0, largest.1
    );
    assert!(
        ratio <= RUN_OVER_DOMAIN_BOUND,
        "run_all peaked at {run_peak} live bytes, {ratio:.2}x the largest single domain \
         ({:?}, {} bytes; bound {RUN_OVER_DOMAIN_BOUND}x): domains outlive their step",
        largest.0,
        largest.1
    );
}
