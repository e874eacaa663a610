//! The cache-hit path is allocation-free — demonstrated, not asserted by
//! inspection.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! cold batch has populated the cache, the text memo, the slot table and
//! the output buffer, replaying the *same lines* through
//! `process_batch` must perform exactly zero heap allocations: JSON
//! scanning borrows from the input, the memo and the spec table are
//! looked up by reference, cached payloads come back as `Arc` refcount
//! bumps, and with no miss in the batch the worker fan-out (and its
//! `thread::scope`) is skipped entirely.
//!
//! The counter sees every thread of the process, so this binary holds a
//! single `#[test]` that runs the scenarios one after another. With
//! several tests, a sibling's cold pass — or the test harness itself,
//! reporting a finished test and spawning the thread of the next one —
//! would run beside a warm window and leak its allocations into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cvliw_serve::testutil::{request_line, TINY_LOOP};
use cvliw_serve::{Server, ServerConfig};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// A second distinct loop so the warm batch exercises more than one
/// cache entry.
const OTHER_LOOP: &str =
    "loop other {\n  i: iadd i@1\n  a: load i\n  b: fadd a, b@1\n  s: store b\n}";

#[test]
fn warm_batches_allocate_nothing() {
    warm_batch_allocates_nothing();
    warm_batch_with_deadline_and_inflight_bound_still_allocates_nothing();
    warm_batch_with_persistence_enabled_still_allocates_nothing();
}

fn warm_batch_allocates_nothing() {
    let mut server = Server::new(ServerConfig {
        jobs: 2,
        ..ServerConfig::default()
    });

    // Mixed traffic: two loops, two machines, two modes, plus repeats
    // inside the batch itself.
    let lines: Vec<String> = vec![
        request_line(1, TINY_LOOP, "4c1b2l64r", "replicate", 1),
        request_line(2, OTHER_LOOP, "4c1b2l64r", "baseline", 1),
        request_line(3, TINY_LOOP, "2c1b2l64r", "sched-len", 2),
        request_line(4, TINY_LOOP, "4c1b2l64r", "replicate", 1),
        request_line(5, OTHER_LOOP, "4c1b2l64r", "baseline", 1),
    ];

    // Cold pass: compiles, fills the cache/memo/slots, and grows the
    // output buffer to its steady-state capacity.
    let mut out = String::new();
    server.process_batch(&lines, &mut out);
    let cold = out.clone();
    assert_eq!(server.stats().compiles, 3, "{:?}", server.stats());
    assert_eq!(server.stats().errors, 0, "{cold}");

    // Warm pass: identical lines (same ids, so `out` needs no more
    // capacity than the cold pass already gave it).
    out.clear();
    let before = ALLOCS.load(Ordering::Relaxed);
    server.process_batch(&lines, &mut out);
    let after = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(out, cold, "warm responses must be byte-identical");
    assert_eq!(
        after - before,
        0,
        "cache-hit path allocated {} times",
        after - before
    );
    // In-batch duplicates coalesce on the cold pass; on the warm pass all
    // five lines hit the cache.
    assert_eq!(server.stats().hits, 5, "{:?}", server.stats());
    assert_eq!(server.stats().coalesced, 2, "{:?}", server.stats());
}

/// The fault-tolerance plumbing must be free when armed but idle: with a
/// deadline configured and an in-flight bound in place, a warm batch
/// still takes the pure hit path — no token is armed (hits never reach a
/// worker), the shed gate is untouched (hits never acquire), and the
/// allocation count stays exactly zero.
fn warm_batch_with_deadline_and_inflight_bound_still_allocates_nothing() {
    let mut server = Server::new(ServerConfig {
        jobs: 2,
        deadline_ms: Some(10_000),
        max_inflight: 8,
        ..ServerConfig::default()
    });

    let lines: Vec<String> = vec![
        request_line(1, TINY_LOOP, "4c1b2l64r", "replicate", 1),
        request_line(2, OTHER_LOOP, "4c1b2l64r", "baseline", 1),
        request_line(3, TINY_LOOP, "4c1b2l64r", "replicate", 1),
    ];

    let mut out = String::new();
    server.process_batch(&lines, &mut out);
    let cold = out.clone();
    let stats = server.stats();
    assert_eq!(
        (stats.errors, stats.shed, stats.deadlines, stats.panics),
        (0, 0, 0, 0),
        "{stats:?}"
    );

    out.clear();
    let before = ALLOCS.load(Ordering::Relaxed);
    server.process_batch(&lines, &mut out);
    let after = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(out, cold, "warm responses must be byte-identical");
    assert_eq!(
        after - before,
        0,
        "armed-but-idle fault plumbing allocated {} times on the warm path",
        after - before
    );
}

/// Persistence must stay off the hit path: journal appends happen on
/// *insert* (a miss), so a warm batch against a persistence-backed cache
/// is still exactly zero allocations — no frame encoding, no persister
/// lock traffic, no `PathBuf` churn.
fn warm_batch_with_persistence_enabled_still_allocates_nothing() {
    use cvliw_serve::{PersistConfig, SharedState};

    let dir = std::env::temp_dir().join(format!("cvliw-alloc-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = cvliw_serve::ServerConfig {
        jobs: 2,
        ..cvliw_serve::ServerConfig::default()
    };
    let (shared, load) =
        SharedState::with_persistence(&cfg, &PersistConfig::new(dir.clone())).expect("cold open");
    assert_eq!(load.loaded, 0);
    let mut server = Server::with_shared(cfg, shared);

    let lines: Vec<String> = vec![
        request_line(1, TINY_LOOP, "4c1b2l64r", "replicate", 1),
        request_line(2, OTHER_LOOP, "4c1b2l64r", "baseline", 1),
        request_line(3, TINY_LOOP, "4c1b2l64r", "replicate", 1),
    ];

    let mut out = String::new();
    server.process_batch(&lines, &mut out);
    let cold = out.clone();
    assert_eq!(server.stats().errors, 0, "{cold}");

    out.clear();
    let before = ALLOCS.load(Ordering::Relaxed);
    server.process_batch(&lines, &mut out);
    let after = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(out, cold, "warm responses must be byte-identical");
    assert_eq!(
        after - before,
        0,
        "persistence leaked {} allocations onto the cache-hit path",
        after - before
    );
    let _ = std::fs::remove_dir_all(&dir);
}
