//! A sharded lock **service**: QSM-backed blocking primitives keyed by
//! arbitrary `u64` keys.
//!
//! Everything else in the repo synchronizes on a handful of static lock
//! words. A server does not: it guards *millions* of logical resources —
//! rows, sessions, cache entries — each wanting its own mutex, eventcount
//! or barrier, almost all of them idle at any instant. Allocating a word
//! per key up front is a non-starter at that scale, and funnelling every
//! key through one lock is the contention collapse the 1991 paper measures.
//! This crate takes the middle path:
//!
//! - [`table::ShardedTable`] — a power-of-two array of cache-line-padded
//!   shards, each a slab allocator of lock-word slots that double as the
//!   shard's key index: a live slot sits on a hash chain off a bucket
//!   array, a free one on the free list. A key's slot exists only while
//!   somebody holds a reference to it (a guard, a parked waiter, an
//!   eventcount handle); detaching the last reference recycles the slot.
//!   Keys hash to shards with the full-avalanche
//!   [`parking::futex::mix64`], and each table embeds its own
//!   [`parking::futex::ParkingLot`] sized to the waiter population, not
//!   the key population.
//! - [`lock::LockService`] — the front end: per-key mutex
//!   ([`lock::LockService::lock`]), per-key eventcount
//!   (`advance`/`await_at_least` with wraparound-safe sequencing), and a
//!   per-key sense-free barrier (round counter + arrival count packed in
//!   one word, immune to the classic two-round sense ABA).
//! - [`semaphore::WaitingArraySemaphore`] — a counting semaphore per Dice &
//!   Kogan's *Semaphores Augmented with a Waiting Array*: a permits counter
//!   plus enqueue/dequeue tickets indexing a small slot array where each
//!   grant is *published* as a sequence number, so releasers never scan
//!   waiter lists and a batch release issues all its wakes in one sweep
//!   ([`parking::futex::futex_wake_batch`]).
//! - [`async_lock::AsyncLockService`] — the async-native front end:
//!   poll-based futures (`lock`, `lock_many`, eventcount waits, barrier
//!   waits, and the semaphore's `acquire_async`) over the *same* table
//!   and slot words, sharing the parking lot's FIFO queues with blocking
//!   threads via waker-or-thread wait entries. Dropping a future
//!   mid-wait is cancellation, and the drop repairs the protocol —
//!   baton-passing mutex grants, abandoned-ticket restoration in the
//!   semaphore, barrier un-arrival — so the machine-wide
//!   `parks == wakes == resumes` invariant spans both worlds.
//!
//! The load generator that drives this crate lives in
//! `workloads::service_load`; the figures it feeds (`fig11`, `table6`,
//! `fig12`, `table7`) are registered in `bench::figures`. Live telemetry —
//! per-shard counters, sampled latency histograms, a hot-key sketch, a
//! flight recorder, and the stall watchdog — lives in [`telemetry`].
//!
//! ## Environment knobs
//!
//! | Variable | Meaning |
//! |---|---|
//! | `SYNCMECH_SERVICE_SHARDS` | shard count for [`lock::LockService::new`] (default 256, rounded up to a power of two) |
//! | `SYNCMECH_SERVICE_THREADS` | worker threads for the real-thread service load generator (default: host parallelism; clamped to [`MAX_THREAD_OVERSUB`]× the host parallelism, with a warning) |
//! | `SYNCMECH_SERVICE_METRICS` | telemetry mode: `off`, `counters` (default), or `sampled:<N>` (counters + 1-in-N latency sampling; see [`telemetry`]) |
//!
//! All of them reject malformed values loudly (see [`service_shards_from`],
//! [`service_threads_from`] and [`telemetry::service_metrics_from`]): a
//! user who sets a knob meant to control it, and a silent fallback would
//! make a typo look like a performance mystery.

pub mod async_lock;
pub mod lock;
pub mod semaphore;
pub mod table;
pub mod telemetry;

pub use async_lock::{
    block_on, AsyncLockService, BarrierFuture, EventWaitFuture, LockFuture, LockManyFuture,
    MultiGuard,
};
pub use lock::{EventKey, KeyGuard, LockService};
pub use semaphore::{AcquireFuture, WaitingArraySemaphore};
pub use table::{ShardedTable, SlotKind, SlotRef, TableStats};
pub use telemetry::{
    service_metrics, service_metrics_from, MetricsMode, MetricsSnapshot, ServiceMetrics,
    StallWatchdog,
};

/// Default shard count for a [`LockService`] when
/// `SYNCMECH_SERVICE_SHARDS` is unset: enough that 64 threads hashing
/// random keys rarely contend a shard mutex, small enough to be cheap.
pub const DEFAULT_SHARDS: usize = 256;

/// Wraparound-safe sequence comparison: `a >= b` on the circle of `u64`
/// sequence numbers, correct as long as the two are within `2^63` of each
/// other. Shared by the eventcount wait loop and the semaphore's grant
/// publication.
#[inline]
pub(crate) fn seq_ge(a: u64, b: u64) -> bool {
    a.wrapping_sub(b) as i64 >= 0
}

/// Shard count for the service: `SYNCMECH_SERVICE_SHARDS` if set, else
/// [`DEFAULT_SHARDS`].
///
/// # Panics
///
/// If the variable is set to anything other than a positive integer.
pub fn service_shards() -> usize {
    let var = std::env::var("SYNCMECH_SERVICE_SHARDS").ok();
    match service_shards_from(var.as_deref()) {
        Ok(n) => n,
        Err(msg) => panic!("{msg}"),
    }
}

/// The policy behind [`service_shards`], with the environment lookup
/// factored out for testability: `None` means the variable is unset.
pub fn service_shards_from(var: Option<&str>) -> Result<usize, String> {
    let Some(raw) = var else {
        return Ok(DEFAULT_SHARDS);
    };
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(
            "SYNCMECH_SERVICE_SHARDS=0: the lock service needs at least one shard; \
             set a positive count, or unset the variable to use the default of 256"
                .to_string(),
        ),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "SYNCMECH_SERVICE_SHARDS={raw:?} is not a positive integer; set a shard \
             count like 256, or unset the variable to use the default of 256"
        )),
    }
}

/// Hard ceiling on worker-thread oversubscription in the real-thread
/// load driver, as a multiple of the host's available parallelism.
/// Closed-loop workers spend most of their time blocked, so some
/// oversubscription is legitimate; a value orders of magnitude past the
/// core count is a typo (`SYNCMECH_SERVICE_THREADS=1000` for `100`) that
/// previously sailed through validation and spawned a thread army the
/// driver could not actually schedule — the knob was effectively ignored
/// as a *worker* count and became an OOM lever. Such values are now
/// clamped, with a warning.
pub const MAX_THREAD_OVERSUB: usize = 8;

/// The resolved worker-thread policy: the count to use, plus the
/// originally requested value when it had to be clamped (so callers can
/// warn).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceThreads {
    /// Worker threads the driver should spawn.
    pub threads: usize,
    /// `Some(requested)` iff the request exceeded the oversubscription
    /// ceiling and was clamped down to `threads`.
    pub clamped_from: Option<usize>,
}

/// Worker threads for the real-thread service load generator:
/// `SYNCMECH_SERVICE_THREADS` if set, else the host's available
/// parallelism. Values beyond [`MAX_THREAD_OVERSUB`]× the host
/// parallelism are clamped, with a warning on stderr.
///
/// # Panics
///
/// If the variable is set to anything other than a positive integer.
pub fn service_threads() -> usize {
    let var = std::env::var("SYNCMECH_SERVICE_THREADS").ok();
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match service_threads_from(var.as_deref(), host) {
        Ok(resolved) => {
            if let Some(requested) = resolved.clamped_from {
                eprintln!(
                    "warning: SYNCMECH_SERVICE_THREADS={requested} exceeds {MAX_THREAD_OVERSUB}x \
                     the host parallelism of {host}; clamped to {} workers",
                    resolved.threads
                );
            }
            resolved.threads
        }
        Err(msg) => panic!("{msg}"),
    }
}

/// The policy behind [`service_threads`], with the environment lookup and
/// host-parallelism probe factored out for testability: `None` means the
/// variable is unset, `host` is the available parallelism.
pub fn service_threads_from(var: Option<&str>, host: usize) -> Result<ServiceThreads, String> {
    let host = host.max(1);
    let Some(raw) = var else {
        return Ok(ServiceThreads {
            threads: host,
            clamped_from: None,
        });
    };
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(
            "SYNCMECH_SERVICE_THREADS=0: the service load generator needs at least one \
             worker thread; set a positive count, or unset the variable to use the \
             host's parallelism"
                .to_string(),
        ),
        Ok(n) => {
            let cap = host.saturating_mul(MAX_THREAD_OVERSUB);
            Ok(ServiceThreads {
                threads: n.min(cap),
                clamped_from: (n > cap).then_some(n),
            })
        }
        Err(_) => Err(format!(
            "SYNCMECH_SERVICE_THREADS={raw:?} is not a positive integer; set a thread \
             count like 4, or unset the variable to use the host's parallelism"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_default_when_unset() {
        assert_eq!(service_shards_from(None), Ok(DEFAULT_SHARDS));
    }

    #[test]
    fn shards_accept_positive_values() {
        assert_eq!(service_shards_from(Some("8")), Ok(8));
        assert_eq!(service_shards_from(Some(" 1024 ")), Ok(1024));
    }

    #[test]
    fn shards_reject_zero_loudly() {
        let err = service_shards_from(Some("0")).unwrap_err();
        assert!(err.contains("SYNCMECH_SERVICE_SHARDS=0"), "{err}");
        assert!(err.contains("at least one shard"), "{err}");
    }

    #[test]
    fn shards_reject_garbage_loudly() {
        for raw in ["lots", "-4", "3.5", ""] {
            let err = service_shards_from(Some(raw)).unwrap_err();
            assert!(err.contains("is not a positive integer"), "{raw:?}: {err}");
            assert!(err.contains(&format!("{raw:?}")), "{raw:?}: {err}");
        }
    }

    #[test]
    fn threads_default_when_unset() {
        let resolved = service_threads_from(None, 4).unwrap();
        assert_eq!(resolved.threads, 4);
        assert_eq!(resolved.clamped_from, None);
    }

    #[test]
    fn threads_accept_positive_values() {
        let resolved = service_threads_from(Some("4"), 8).unwrap();
        assert_eq!(resolved.threads, 4);
        assert_eq!(resolved.clamped_from, None);
    }

    #[test]
    fn threads_accept_moderate_oversubscription() {
        // Closed-loop workers block most of the time; up to the ceiling
        // the request passes through untouched.
        let resolved = service_threads_from(Some("32"), 4).unwrap();
        assert_eq!(resolved.threads, 32);
        assert_eq!(resolved.clamped_from, None);
    }

    /// Regression: a request far beyond the worker count used to pass
    /// validation untouched (the knob's *intent* — that many schedulable
    /// workers — was silently ignored). It now clamps to the
    /// oversubscription ceiling and reports the original so callers warn.
    #[test]
    fn threads_clamp_absurd_oversubscription() {
        let resolved = service_threads_from(Some("100000"), 4).unwrap();
        assert_eq!(resolved.threads, 4 * MAX_THREAD_OVERSUB);
        assert_eq!(resolved.clamped_from, Some(100_000));
        // Exactly at the ceiling is still accepted unclamped.
        let at_cap = service_threads_from(Some("32"), 4).unwrap();
        assert_eq!(at_cap.clamped_from, None);
        // A degenerate host probe of 0 behaves as a one-core host rather
        // than clamping everything to zero.
        let tiny = service_threads_from(Some("4"), 0).unwrap();
        assert_eq!(tiny.threads, 4);
    }

    #[test]
    fn threads_reject_zero_loudly() {
        let err = service_threads_from(Some("0"), 4).unwrap_err();
        assert!(err.contains("SYNCMECH_SERVICE_THREADS=0"), "{err}");
        assert!(err.contains("at least one worker thread"), "{err}");
    }

    #[test]
    fn threads_reject_garbage_loudly() {
        for raw in ["many", "-1", "2x"] {
            let err = service_threads_from(Some(raw), 4).unwrap_err();
            assert!(err.contains("is not a positive integer"), "{raw:?}: {err}");
        }
    }

    #[test]
    fn seq_ge_survives_wraparound() {
        assert!(seq_ge(5, 5));
        assert!(seq_ge(6, 5));
        assert!(!seq_ge(5, 6));
        assert!(seq_ge(2, u64::MAX - 2)); // wrapped past zero
        assert!(!seq_ge(u64::MAX - 2, 2));
    }
}
