//! Exact order statistics over raw samples, and process measurements.

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency summary of one pass: exact p50 and p99 of every recorded
/// sample, how many samples lie strictly beyond the p99, and
/// the share of the threads' time spent waiting for grants.
#[derive(Debug, Clone, Copy)]
pub struct PassLatency {
    pub p50: u64,
    pub p99: u64,
    pub samples: u64,
    pub beyond_p99: u64,
    pub lock_share: f64,
}

impl PassLatency {
    /// Sorts `samples` in place and summarizes them; `thread_s` is the
    /// pass's wall time summed over the threads that took the samples.
    pub fn of(samples: &mut [u64], thread_s: f64) -> PassLatency {
        samples.sort_unstable();
        let p99 = quantile_sorted(samples, 0.99);
        let total: u64 = samples.iter().sum();
        PassLatency {
            p50: quantile_sorted(samples, 0.50),
            p99,
            samples: samples.len() as u64,
            beyond_p99: samples.iter().rev().take_while(|&&s| s > p99).count() as u64,
            lock_share: total as f64 / 1e9 / thread_s,
        }
    }
}

/// Latency over a run: the median across passes of each pass's exact
/// quantiles and lock share, plus the totals of samples and of
/// samples beyond p99.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub lock_share: f64,
    pub samples: u64,
    pub beyond_p99: u64,
}

impl Latency {
    pub fn over(passes: &[PassLatency]) -> Latency {
        let of = |f: fn(&PassLatency) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        Latency {
            p50_ns: of(|p| p.p50 as f64),
            p99_ns: of(|p| p.p99 as f64),
            lock_share: of(|p| p.lock_share),
            samples: passes.iter().map(|p| p.samples).sum(),
            beyond_p99: passes.iter().map(|p| p.beyond_p99).sum(),
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// CPU time the hypervisor has taken from this machine's CPUs so far, in
/// seconds (the `steal` column of `/proc/stat`, 100 ticks a second); 0
/// where the kernel does not report it.
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Runs `f` `n` times and returns the median wall time in seconds along
/// with the last result.
pub fn median_of<R>(n: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t0 = std::time::Instant::now();
        let r = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    (median(&times), last.expect("median_of needs n >= 1"))
}

/// How long one burst of repeated set-ups lasts.
const SETUP_BURST_S: f64 = 0.01;
/// Least time between the starts of two bursts.
const SETUP_EVERY_S: f64 = 0.5;

/// Set-up times sampled across a run: bursts of repeated set-ups, one
/// before the first pass and one after a pass at most every
/// `SETUP_EVERY_S`. `setup_s` is the fastest set-up of the run. Set-up is
/// a short single-threaded burst of dependent arithmetic, and on a shared
/// host its time in one burst swings 2-3x with what runs beside it; the
/// fastest set-up is the work itself, and sampling across the whole run
/// lets it see the host's quiet moments as well as its busy ones.
pub struct SetupClock {
    fastest: f64,
    samples: usize,
    last: Option<std::time::Instant>,
    repeat: bool,
}

impl SetupClock {
    /// With `repeat` off, the clock times a single set-up.
    pub fn new(repeat: bool) -> SetupClock {
        SetupClock {
            fastest: f64::INFINITY,
            samples: 0,
            last: None,
            repeat,
        }
    }

    /// Runs `f` once, and again while the burst lasts when repeating;
    /// returns the last result.
    pub fn burst<R>(&mut self, mut f: impl FnMut() -> R) -> R {
        let start = std::time::Instant::now();
        self.last = Some(start);
        loop {
            let t0 = std::time::Instant::now();
            let r = f();
            self.fastest = self.fastest.min(t0.elapsed().as_secs_f64());
            self.samples += 1;
            if !self.repeat || start.elapsed().as_secs_f64() >= SETUP_BURST_S {
                return r;
            }
        }
    }

    /// Samples again after a pass when repeating and the last burst began
    /// at least `SETUP_EVERY_S` ago; the inputs are dropped.
    pub fn resample<R>(&mut self, f: impl FnMut() -> R) {
        let due = !self
            .last
            .is_some_and(|t| t.elapsed().as_secs_f64() < SETUP_EVERY_S);
        if self.repeat && due {
            drop(self.burst(f));
        }
    }

    /// The fastest set-up timed, in seconds.
    pub fn fastest(&self) -> f64 {
        self.fastest
    }

    /// Set-ups run in all bursts.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
        let mut s: Vec<u64> = (1..=1000).rev().collect();
        let p = PassLatency::of(&mut s, 1e-3);
        assert_eq!(
            (p.p50, p.p99, p.samples, p.beyond_p99),
            (500, 990, 1000, 10)
        );
        assert!((p.lock_share - 0.5005).abs() < 1e-12);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
