//! The async backlog probe: `workloads::service_load::async_load_with_metrics`
//! at fig12's few-permit shape on the virtual-clock executor, timed from
//! outside. Thousands of request tasks queue on the waiting-array
//! semaphore, so the executor and semaphore wake paths carry the cost.
//! Only host time is measured; the virtual results are checked.

use crate::spans::{self, SpanLog};
use crate::stats::median;
use crate::Layers;
use std::time::Instant;
use workloads::service_load::{async_load_with_metrics, ServiceLoadConfig};

/// Worker permits: fig12's smallest cell.
const WORKERS: usize = 4;
/// Requests per cell.
const REQUESTS: usize = 3_000;
/// fig12's futex wake cost in virtual cycles.
const WAKE_COST: u64 = 40;
/// Cells timed per probe.
const CELLS: usize = 5;

/// What the probe ran and checked.
pub struct Probe {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub spans: SpanLog,
}

/// Runs `CELLS` cells of the seeded schedule. Every cell must complete
/// all requests, drain the table, balance the lot, and make exactly the
/// polls the first cell made.
pub fn probe(seed: u64, layers: &mut Layers) -> Probe {
    let mut cfg = ServiceLoadConfig::new(WORKERS, REQUESTS);
    cfg.seed = seed;
    let mode = service::service_metrics();
    let mut log = SpanLog::new("async", CELLS);
    let mut cell_s = Vec::with_capacity(CELLS);
    let mut polls = None;
    let (mut failed, mut problems) = (0u64, Vec::new());
    for _ in 0..CELLS {
        let t0 = Instant::now();
        let r = async_load_with_metrics(&cfg, WAKE_COST, mode);
        let dt = t0.elapsed();
        log.push(spans::CELL, spans::ns_since(t0), dt.as_nanos() as u64);
        cell_s.push(dt.as_secs_f64());
        failed += (REQUESTS as u64).saturating_sub(r.result.completed);
        let live = r.snapshot.table.map_or(0, |t| t.live);
        if live != 0 {
            problems.push(format!("{live} keys still attached after an async cell"));
        }
        if let Some(f) = r.snapshot.futex.filter(|f| !f.balanced()) {
            problems.push(format!(
                "async lot imbalance: parks {} wakes {} resumes {}",
                f.parks, f.wakes, f.resumes
            ));
        }
        let first = *polls.get_or_insert(r.polls);
        if r.polls != first {
            problems.push(format!("async cell made {} polls, not {first}", r.polls));
        }
    }
    let polls = polls.expect("at least one cell ran") as f64;
    layers.set(
        "workloads.executor.polls_per_request",
        polls / REQUESTS as f64,
    );
    layers.set(
        "workloads.executor.ns_per_poll",
        median(&cell_s) * 1e9 / polls,
    );
    Probe {
        attempted: (CELLS * REQUESTS) as u64,
        failed,
        problems,
        spans: log,
    }
}
