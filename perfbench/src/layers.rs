//! Per-layer probes of the lock-service stack, each timing calls into one
//! layer's public functions from outside.

use crate::stats::median;
use crate::Layers;
use service::{LockService, MetricsMode, ShardedTable, SlotKind, WaitingArraySemaphore};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

const REPS: usize = 5;
const SHARDS: usize = 256;

/// Median over `REPS` runs of `f(n)` in host ns per op.
fn ns_per_op(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f(n);
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&times)
}

fn uncontended_lock(mode: MetricsMode) -> f64 {
    let svc = LockService::with_metrics_mode(SHARDS, mode);
    ns_per_op(1_000_000, |n| {
        for i in 0..n {
            drop(black_box(svc.lock(i & 1023)));
        }
    })
}

/// Two threads alternate parking on one word and waking each other; one
/// round trip is two park→wake handoffs.
fn park_wake_rtt() -> f64 {
    const ROUNDS: u64 = 20_000;
    let turn = AtomicU64::new(0);
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            turn.store(0, Ordering::SeqCst);
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for me in 0..2u64 {
                    let turn = &turn;
                    s.spawn(move || {
                        for _ in 0..ROUNDS {
                            while turn.load(Ordering::SeqCst) != me {
                                parking::futex::futex_wait(turn, 1 - me);
                            }
                            turn.store(1 - me, Ordering::SeqCst);
                            parking::futex::futex_wake(turn, 1);
                        }
                    });
                }
            });
            t0.elapsed().as_nanos() as f64 / ROUNDS as f64
        })
        .collect();
    median(&times)
}

/// Two threads take turns on one key, so that every acquisition takes
/// the key from the other thread: a thread asks only once the other holds
/// the key, and the holder releases only once the other has asked. Host
/// ns per handoff.
fn handoff() -> f64 {
    const ROUNDS: u64 = 100_000;
    const KEY: u64 = 7;
    let total = 2 * ROUNDS;
    let svc = LockService::new();
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let turn = AtomicU64::new(0);
            let asks = AtomicU64::new(0);
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for me in 0..2u64 {
                    let (svc, turn, asks) = (&svc, &turn, &asks);
                    s.spawn(move || {
                        for _ in 0..ROUNDS {
                            while turn.load(Ordering::Acquire) != me {
                                std::hint::spin_loop();
                            }
                            let asked = asks.fetch_add(1, Ordering::AcqRel) + 1;
                            let guard = svc.lock(KEY);
                            turn.store(1 - me, Ordering::Release);
                            // The last acquisition has no one to hand to.
                            while asked < total && asks.load(Ordering::Acquire) == asked {
                                std::hint::spin_loop();
                            }
                            drop(black_box(guard));
                        }
                    });
                }
            });
            t0.elapsed().as_nanos() as f64 / total as f64
        })
        .collect();
    median(&times)
}

/// Host ns for one `release_n` that publishes grants to, and wakes, a
/// batch of parked waiters.
fn release_n_batch() -> f64 {
    const WAITERS: usize = 4;
    const ROUNDS: usize = 100;
    let sem = WaitingArraySemaphore::new(0, WAITERS.next_power_of_two());
    let round = Barrier::new(WAITERS + 1);
    let mut times = Vec::with_capacity(ROUNDS);
    std::thread::scope(|s| {
        for _ in 0..WAITERS {
            s.spawn(|| {
                for _ in 0..ROUNDS {
                    sem.acquire();
                    round.wait();
                }
            });
        }
        for _ in 0..ROUNDS {
            // Wait until every waiter holds a ticket and has parked.
            while sem.permits() > -(WAITERS as i64) || {
                let t = parking::futex::totals();
                t.parks - t.resumes < WAITERS as u64
            } {
                std::thread::yield_now();
            }
            let t0 = Instant::now();
            let granted = sem.release_n(WAITERS);
            times.push(t0.elapsed().as_nanos() as f64);
            assert_eq!(granted, WAITERS, "release_n granted every parked waiter");
            round.wait();
        }
    });
    median(&times)
}

pub fn probe(layers: &mut Layers) {
    let word = AtomicU64::new(0);
    let cas = ns_per_op(2_000_000, |n| {
        for _ in 0..n {
            let _ = black_box(&word).compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst);
            word.store(0, Ordering::Release);
        }
    });
    layers.set("baseline.atomic_cas_ns", cas);
    let mutex = Mutex::new(0u64);
    layers.set(
        "baseline.std_mutex_ns",
        ns_per_op(2_000_000, |n| {
            for _ in 0..n {
                *black_box(&mutex).lock().expect("baseline mutex poisoned") += 1;
            }
        }),
    );

    let table = ShardedTable::new(SHARDS);
    let fresh = ns_per_op(1_000_000, |n| {
        for i in 0..n {
            drop(black_box(table.attach(i & 1023, SlotKind::Mutex)));
        }
    });
    layers.set("service.table.attach_detach_ns.fresh", fresh);
    let pin = table.attach(1 << 40, SlotKind::Mutex);
    layers.set(
        "service.table.attach_detach_ns.hit",
        ns_per_op(1_000_000, |n| {
            for _ in 0..n {
                drop(black_box(table.attach(pin.key(), SlotKind::Mutex)));
            }
        }),
    );
    drop(pin);

    let off = uncontended_lock(MetricsMode::Off);
    layers.set("service.lock.uncontended_ns.off", off);
    layers.set(
        "service.lock.uncontended_ns.counters",
        uncontended_lock(MetricsMode::Counters),
    );
    layers.set(
        "service.lock.uncontended_ns.sampled64",
        uncontended_lock(MetricsMode::Sampled(64)),
    );
    // The uncontended op with telemetry off, less the table round trip and
    // the CAS: the part no layer row explains.
    layers.set("service.lock.layer_gap_ns", off - fresh - cas);
    layers.set("service.lock.handoff_ns", handoff());

    let idle = AtomicU64::new(0);
    layers.set(
        "parking.futex.wake_empty_ns",
        ns_per_op(1_000_000, |n| {
            for _ in 0..n {
                black_box(parking::futex::futex_wake(&idle, 1));
            }
        }),
    );
    layers.set("parking.futex.park_wake_rtt_ns", park_wake_rtt());

    let sem = WaitingArraySemaphore::new(1, 2);
    layers.set(
        "service.semaphore.acquire_release_ns",
        ns_per_op(1_000_000, |n| {
            for _ in 0..n {
                sem.acquire();
                sem.release();
            }
        }),
    );
    layers.set("service.semaphore.release_n_ns", release_n_batch());

    let svc = service::AsyncLockService::with_shards(SHARDS);
    layers.set(
        "service.async_lock.poll_ns",
        ns_per_op(500_000, |n| {
            for i in 0..n {
                drop(black_box(service::block_on(svc.lock(i & 1023))));
            }
        }),
    );
}
