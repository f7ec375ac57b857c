//! `svc_spread` and `svc_hot`: closed-loop threads calling
//! `LockService::lock` and dropping the guard, with every op's
//! lock-to-grant time recorded in a preallocated per-thread buffer.

use crate::spans::{self, SpanLog};
use crate::stats::{median, peak_rss_mb, Latency, PassLatency, SetupClock};
use crate::{Budget, Layers, Outcome};
use service::LockService;
use simcore::Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// One of the two service workloads.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    /// Lock/unlock round trips per thread per pass.
    pub ops_per_pass: usize,
    /// Keys are drawn uniformly from this many distinct values.
    pub key_space: u64,
    /// Mean busy-spin iterations inside the critical section; each op's
    /// count is drawn uniformly from half to one and a half times this.
    pub hold_spins: u32,
    /// Busy-spin iterations between a release and the next lock call.
    pub think_spins: u32,
}

/// Many keys, empty critical section: table attach, CAS, detach.
pub const SPREAD: Shape = Shape {
    name: "svc_spread",
    ops_per_pass: 100_000,
    key_space: 1 << 20,
    hold_spins: 0,
    think_spins: 0,
};

/// One key; waiters spin 127 pauses (`qsm::Backoff`) and then park. A
/// waiter arrives part-way through the other thread's hold, so the hold
/// must be well past the spin budget for waiters to park at all. Each
/// op's hold is drawn from the seed: with a fixed hold the two threads
/// could fall into step so that no waiter parked, and p99 dropped from
/// the park path (~11 us) to the spin path (~4 us) in 2 of 10 runs on a
/// shared 2-core host. With holds of 120-360 pauses, 8-13% of ops park,
/// so p99 is the park and wake path and p50 the spin handoff; a fixed
/// 160-pause hold parked only 0.3-5%. The think time between ops lets
/// the lock change hands: with none, the releasing thread re-takes the
/// lock before a woken waiter runs, and p99 becomes the hypervisor's wake
/// latency for an idle core. Drawing the think time (200-600 pauses)
/// instead of the hold put p99 at 25-32 us.
/// An 800-pause hold with 640 of think time parked 44-87% of ops, and
/// its p50 ranged from 0.26 to 21 us across runs with the host's load.
pub const HOT: Shape = Shape {
    name: "svc_hot",
    ops_per_pass: 10_000,
    key_space: 1,
    hold_spins: 240,
    think_spins: 400,
};

/// Every `SPAN_STRIDE`-th op of a traced run also records its acquire and
/// release spans.
const SPAN_STRIDE: usize = 64;
const SPANS_PER_THREAD: usize = 1 << 13;

/// State that only a thread holding the single `svc_hot` key may touch.
/// A lock that lets two holders in at once trips the flag or loses an
/// update of the plain (load-then-store) count.
#[derive(Default)]
struct Exclusion {
    inside: AtomicBool,
    count: AtomicU64,
}

/// One op's input: the key to lock and how long to hold it.
#[derive(Clone, Copy)]
struct Op {
    key: u64,
    hold_spins: u32,
}

struct Inputs {
    svc: LockService,
    ops: Vec<Vec<Op>>,
    lat: Vec<Mutex<Vec<u64>>>,
}

/// Ops from the seed (one stream per thread), latency buffers written
/// through once so the timed passes take no page faults, and the service
/// under the pinned knobs.
fn setup(shape: &Shape, seed: u64, threads: usize) -> Inputs {
    let mut root = Rng::new(seed);
    // The key space sits at a seed-chosen offset so the hot key too
    // depends on the seed.
    let base = root.next_u64() >> 1;
    let hold = shape.hold_spins;
    let ops = (0..threads)
        .map(|t| {
            let mut rng = root.fork(t as u64 + 1);
            (0..shape.ops_per_pass)
                .map(|_| Op {
                    key: base + rng.next_below(shape.key_space),
                    hold_spins: if hold == 0 {
                        0
                    } else {
                        hold / 2 + rng.next_below(u64::from(hold) + 1) as u32
                    },
                })
                .collect()
        })
        .collect();
    let lat = (0..threads)
        .map(|_| Mutex::new(vec![u64::MAX; shape.ops_per_pass]))
        .collect();
    Inputs {
        svc: LockService::new(),
        ops,
        lat,
    }
}

/// What one worker thread saw over the whole run.
struct Worker {
    granted: u64,
    /// Times the exclusion flag was already set on entry.
    overlaps: u64,
    log: SpanLog,
}

pub fn run(
    shape: &Shape,
    budget: &Budget,
    traced: bool,
    layers: &mut Layers,
) -> Result<Outcome, String> {
    let threads = service::service_threads();
    let mut clock = SetupClock::new(budget.sample_setup);
    let inputs = clock.burst(|| setup(shape, budget.seed, threads));
    let Inputs { svc, ops, lat } = inputs;
    let before = svc.metrics_snapshot();
    let checked = shape.key_space == 1;
    let excl = Exclusion::default();
    let barrier = Barrier::new(threads + 1);
    let stop = AtomicBool::new(false);
    let mut pass_s = Vec::new();
    let mut pass_lat = Vec::new();
    let mut merged = Vec::with_capacity(threads * shape.ops_per_pass);
    let mut rss = None;

    let workers: Vec<Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (svc, ops, lat, barrier, stop, excl) =
                    (&svc, &ops[t], &lat[t], &barrier, &stop, &excl);
                s.spawn(move || {
                    let mut w = Worker {
                        granted: 0,
                        overlaps: 0,
                        log: SpanLog::new(
                            format!("{} thread {t}", shape.name),
                            if traced { SPANS_PER_THREAD } else { 0 },
                        ),
                    };
                    loop {
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            return w;
                        }
                        let mut lat = lat.lock().expect("latency buffer lock poisoned");
                        for (i, (op, slot)) in ops.iter().zip(lat.iter_mut()).enumerate() {
                            let key = op.key;
                            let t0 = Instant::now();
                            let guard = svc.lock(key);
                            let t1 = Instant::now();
                            w.granted += u64::from(guard.key() == key);
                            if checked {
                                w.overlaps += u64::from(excl.inside.swap(true, Ordering::Relaxed));
                                let n = excl.count.load(Ordering::Relaxed);
                                excl.count.store(n + 1, Ordering::Relaxed);
                            }
                            for _ in 0..op.hold_spins {
                                std::hint::spin_loop();
                            }
                            if checked {
                                excl.inside.store(false, Ordering::Relaxed);
                            }
                            if traced && i % SPAN_STRIDE == 0 {
                                let t2 = Instant::now();
                                drop(guard);
                                let t3 = Instant::now();
                                w.log.push(
                                    spans::ACQUIRE,
                                    spans::ns_since(t0),
                                    (t1 - t0).as_nanos() as u64,
                                );
                                w.log.push(
                                    spans::RELEASE,
                                    spans::ns_since(t2),
                                    (t3 - t2).as_nanos() as u64,
                                );
                            } else {
                                drop(guard);
                            }
                            *slot = (t1 - t0).as_nanos() as u64;
                            for _ in 0..shape.think_spins {
                                std::hint::spin_loop();
                            }
                        }
                        drop(lat);
                        barrier.wait();
                    }
                })
            })
            .collect();

        let start = Instant::now();
        while pass_s.is_empty() || start.elapsed().as_secs_f64() < budget.seconds {
            let t0 = Instant::now();
            barrier.wait();
            barrier.wait();
            let wall = t0.elapsed().as_secs_f64();
            pass_s.push(wall);
            merged.clear();
            for buf in &lat {
                merged.extend_from_slice(&buf.lock().expect("latency buffer lock poisoned"));
            }
            pass_lat.push(PassLatency::of(&mut merged, wall * threads as f64));
            rss.get_or_insert_with(peak_rss_mb);
            clock.resample(|| setup(shape, budget.seed, threads));
        }
        stop.store(true, Ordering::SeqCst);
        barrier.wait();
        handles
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect()
    });

    let attempted = (pass_s.len() * threads * shape.ops_per_pass) as u64;
    let granted: u64 = workers.iter().map(|w| w.granted).sum();
    let overlaps: u64 = workers.iter().map(|w| w.overlaps).sum();
    let mut problems = Vec::new();
    let stats = svc.stats();
    if stats.live != 0 {
        problems.push(format!("{} keys still attached after drain", stats.live));
    }
    let futex = svc.futex_totals();
    if !futex.balanced() {
        problems.push(format!(
            "lot imbalance: parks {} wakes {} resumes {}",
            futex.parks, futex.wakes, futex.resumes
        ));
    }
    if checked {
        let count = excl.count.load(Ordering::SeqCst);
        if overlaps != 0 || count != granted {
            problems.push(format!(
                "mutual exclusion broken: {overlaps} overlapping holders, \
                 {count} critical-section updates for {granted} grants"
            ));
        }
    }
    let snap = svc.metrics_snapshot();
    let ops = attempted as f64;
    let parks_per_op = (snap.parked - before.parked) as f64 / ops;
    if traced {
        let p = shape.name;
        layers.set(format!("{p}.service.parks_per_op"), parks_per_op);
        layers.set(
            format!("{p}.service.cas_retries_per_op"),
            (snap.cas_retries - before.cas_retries) as f64 / ops,
        );
        layers.set(
            format!("{p}.service.slot_recycles_per_op"),
            (snap.slot_recycles - before.slot_recycles) as f64 / ops,
        );
        layers.set(
            format!("{p}.service.fast_path_ratio"),
            (snap.fast_path - before.fast_path) as f64
                / (snap.acquires - before.acquires).max(1) as f64,
        );
        layers.set(
            format!("{p}.parking.wakes_per_op"),
            futex.wakes as f64 / ops,
        );
        layers.set(
            format!("{p}.service.table.peak_live"),
            stats.peak_live as f64,
        );
        layers.set(format!("{p}.service.table.capacity"), stats.capacity as f64);
    }
    let latency = Latency::over(&pass_lat);
    Ok(Outcome {
        setup_s: clock.fastest(),
        wall_s: median(&pass_s),
        units: granted,
        passes: pass_s.len(),
        latency,
        peak_rss_mb: rss.expect("at least one pass ran"),
        attempted,
        // An op fails when its guard is for another key, or when it
        // shared the critical section with another holder.
        failed: attempted - granted + overlaps,
        problems,
        spans: workers
            .into_iter()
            .map(|w| w.log)
            .filter(|l| traced && !l.spans.is_empty())
            .collect(),
        info: vec![
            (
                "inputs",
                format!(
                    "seeded keys and hold times, {} per thread, keys uniform over {}",
                    shape.ops_per_pass, shape.key_space
                ),
            ),
            ("threads", threads.to_string()),
            ("shards", stats.shards.to_string()),
            ("hold_spins", shape.hold_spins.to_string()),
            ("think_spins", shape.think_spins.to_string()),
            ("exclusion_checked", checked.to_string()),
            ("passes", pass_s.len().to_string()),
            ("setup_samples", clock.samples().to_string()),
            ("lock_share", format!("{:.4}", latency.lock_share)),
            ("parks_per_op", format!("{parks_per_op:.4}")),
        ],
    })
}
