//! In-memory spans for traced runs, exported once at the end through the
//! repo's Chrome trace-event exporter and checked by its validator.

use std::sync::OnceLock;
use std::time::Instant;

/// Span names the workloads record.
pub const ACQUIRE: &str = "svc.lock.acquire";
pub const RELEASE: &str = "svc.lock.release";
pub const FIGURE: &str = "sim.figure";
pub const CELL: &str = "async.cell";

/// The shared time base of every track, fixed on first use.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds from the time base to `t`.
#[inline]
pub fn ns_since(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// One track's spans in a preallocated buffer; spans past the capacity
/// are counted, not stored, so recording never allocates.
#[derive(Debug)]
pub struct SpanLog {
    pub track: String,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanLog {
    pub fn new(track: impl Into<String>, capacity: usize) -> SpanLog {
        SpanLog {
            track: track.into(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    #[inline]
    pub fn push(&mut self, name: &'static str, start_ns: u64, dur_ns: u64) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                name,
                start_ns,
                dur_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Self time of every span named `name`: its duration minus the time
    /// covered by spans nested directly inside it on this track.
    fn self_times(&self, name: &str, out: &mut Vec<u64>) {
        let mut order: Vec<&Span> = self.spans.iter().collect();
        order.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        // Stack of (span, child time) for the currently open spans.
        let mut open: Vec<(&Span, u64)> = Vec::new();
        let close = |open: &mut Vec<(&Span, u64)>, out: &mut Vec<u64>| {
            let (s, child) = open.pop().expect("close of an empty stack");
            if s.name == name {
                out.push(s.dur_ns.saturating_sub(child));
            }
            if let Some(parent) = open.last_mut() {
                parent.1 += s.dur_ns;
            }
        };
        for s in order {
            while open
                .last()
                .is_some_and(|(p, _)| p.start_ns + p.dur_ns <= s.start_ns)
            {
                close(&mut open, out);
            }
            open.push((s, 0));
        }
        while !open.is_empty() {
            close(&mut open, out);
        }
    }
}

/// Median self time (ns) of the spans named `name` across `logs`, or 0
/// when no such span was recorded.
pub fn self_p50_ns(logs: &[&SpanLog], name: &str) -> f64 {
    let mut times = Vec::new();
    for log in logs {
        log.self_times(name, &mut times);
    }
    if times.is_empty() {
        return 0.0;
    }
    times.sort_unstable();
    crate::stats::quantile_sorted(&times, 0.5) as f64
}

/// Renders every track as Chrome trace-event JSON (timestamps in ns) and
/// validates it with the repo's own checker.
pub fn export(
    logs: &[SpanLog],
    process: &str,
) -> Result<(String, trace::chrome::TraceStats), String> {
    let mut b = trace::chrome::ChromeTraceBuilder::new(process);
    for (tid, log) in logs.iter().enumerate() {
        b.thread(tid, &log.track);
        let mut spans: Vec<&Span> = log.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        // Emit begins and ends in time order, closing nested spans first.
        let mut open: Vec<(u64, &str)> = Vec::new();
        for s in spans {
            while let Some(&(end, name)) = open.last() {
                if end > s.start_ns {
                    break;
                }
                b.end(tid, end, name);
                open.pop();
            }
            b.begin(tid, s.start_ns, s.name);
            open.push((s.start_ns + s.dur_ns, s.name));
        }
        while let Some((end, name)) = open.pop() {
            b.end(tid, end, name);
        }
    }
    let json = b.finish();
    let stats = trace::chrome::validate(&json)?;
    Ok((json, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut log = SpanLog::new("t", 8);
        log.push(FIGURE, 0, 100);
        log.push(CELL, 10, 30);
        log.push(CELL, 50, 20);
        log.push(FIGURE, 200, 10);
        assert_eq!(self_p50_ns(&[&log], FIGURE), 10.0);
        assert_eq!(self_p50_ns(&[&log], CELL), 20.0);
        let (json, stats) = export(std::slice::from_ref(&log), "test").unwrap();
        assert_eq!(stats.spans, 4, "{json}");
    }

    #[test]
    fn full_log_counts_drops() {
        let mut log = SpanLog::new("t", 1);
        log.push(ACQUIRE, 0, 1);
        log.push(ACQUIRE, 2, 1);
        assert_eq!((log.spans.len(), log.dropped), (1, 1));
    }
}
