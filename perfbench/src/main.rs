//! perfbench: one benchmark for both stacks of the repo.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]
//! ```
//!
//! Workloads: `svc_spread` and `svc_hot`, real threads on `LockService`.
//! With `--trace 0` the last stdout line carries the end-to-end metrics of
//! the named workload. With `--trace 1` it carries the per-layer metrics:
//! the memsim figure set renders once, both service workloads run traced
//! (the named one for the full `--seconds`, the other for one short
//! slice), the named one also runs untraced for the tracing overhead, and
//! the layer probes run last, the async backlog on the virtual-clock
//! executor among them. Spans go to `--trace-out` as Chrome trace-event
//! JSON checked by `trace::chrome::validate`.
//!
//! The program's crates are measured from outside: this binary only calls
//! their public functions. Every `SYNCMECH_*` knob a workload reads is
//! set explicitly at start-up, so an ambient export cannot change a run.

mod backlog;
mod layers;
mod sim;
mod spans;
mod stats;
mod svc;

use spans::SpanLog;
use stats::Latency;
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const WORKLOADS: [&str; 2] = ["svc_spread", "svc_hot"];

/// How long and from what a workload runs.
pub struct Budget {
    pub seed: u64,
    /// Passes repeat until this many seconds have gone (at least one pass).
    pub seconds: f64,
    /// Repeat set-ups across the run for `setup_s` (see `SetupClock`).
    pub sample_setup: bool,
}

/// What one workload run measured and checked.
pub struct Outcome {
    pub setup_s: f64,
    /// Median host seconds of one pass.
    pub wall_s: f64,
    /// Units of work completed in the timed region.
    pub units: u64,
    /// Passes the timed region ran.
    pub passes: usize,
    pub latency: Latency,
    /// Peak resident set size (MiB) at the end of the first pass, so it
    /// does not depend on how many passes fit in the budget.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Broken invariants (drain, lot balance, mutual exclusion).
    pub problems: Vec<String>,
    pub spans: Vec<SpanLog>,
    /// Self-description of the run.
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Units per host second of the median pass, so that a few passes
    /// slowed by the host do not move it.
    fn rate(&self) -> f64 {
        self.units as f64 / self.passes as f64 / self.wall_s
    }
}

/// Per-layer metrics by name.
#[derive(Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    probe: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        probe: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "--probe" => args.probe = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.probe.is_none() && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Clears every ambient `SYNCMECH_*` variable and sets the knobs the
/// workloads read. Replay stays off by being unset (the knob has no "off"
/// spelling). Runs before any other thread exists.
fn pin_knobs(host: usize) {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SYNCMECH_") {
            std::env::remove_var(key);
        }
    }
    let host = host.to_string();
    for (key, value) in [
        ("SYNCMECH_SWEEP_THREADS", host.as_str()),
        ("SYNCMECH_SERVICE_THREADS", host.as_str()),
        ("SYNCMECH_SERVICE_SHARDS", "256"),
        ("SYNCMECH_SERVICE_METRICS", "counters"),
        ("SYNCMECH_TRACE", "off"),
        ("SYNCMECH_QUICK", "0"),
    ] {
        std::env::set_var(key, value);
    }
}

/// The knob values as the program itself resolves them.
fn resolved_knobs(host: usize) -> Vec<(&'static str, String)> {
    vec![
        ("host_cores", host.to_string()),
        ("service_metrics", service::service_metrics().label()),
        ("service_shards", service::service_shards().to_string()),
        ("service_threads", service::service_threads().to_string()),
        (
            "sweep_fanout",
            workloads::sweeps::sweep_threads().to_string(),
        ),
        (
            "replay",
            workloads::sweeps::replay_fragment().map_or("off".to_string(), |k| k.to_string()),
        ),
    ]
}

fn run_workload(
    name: &str,
    budget: &Budget,
    traced: bool,
    layers: &mut Layers,
) -> Result<Outcome, String> {
    match name {
        "svc_spread" => svc::run(&svc::SPREAD, budget, traced, layers),
        "svc_hot" => svc::run(&svc::HOT, budget, traced, layers),
        other => Err(format!("unknown workload {other}")),
    }
}

fn json_info(info: &[(&str, String)]) -> String {
    let fields: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Prints the human-readable lines and the final JSON result line.
fn report(metrics: &[(String, f64, &str)], attempted: u64, failed: u64, correct: bool) {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        println!("{name} {value} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
}

fn untraced(args: &Args, host: usize) -> Result<(), String> {
    let budget = Budget {
        seed: args.seed,
        seconds: args.seconds,
        sample_setup: true,
    };
    let steal = stats::host_steal_s();
    let o = run_workload(&args.workload, &budget, false, &mut Layers::default())?;
    let steal = stats::host_steal_s() - steal;
    let mut info = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
    ];
    info.extend(resolved_knobs(host));
    // CPU time the hypervisor gave other guests during the run: seconds of
    // it mean the run measured a host with fewer cores than it reports.
    info.push(("host_steal_s", format!("{steal:.2}")));
    info.extend(o.info.iter().cloned());
    info.push(("latency_samples", o.latency.samples.to_string()));
    info.push(("latency_beyond_p99", o.latency.beyond_p99.to_string()));
    println!("run {}", json_info(&info));
    for p in &o.problems {
        eprintln!("perfbench: {p}");
    }
    report(
        &[
            ("setup_s".into(), o.setup_s, "s"),
            ("wall_s".into(), o.wall_s, "s"),
            ("ops_per_s".into(), o.rate(), "1/s"),
            ("latency_p50_ns".into(), o.latency.p50_ns, "ns"),
            ("latency_p99_ns".into(), o.latency.p99_ns, "ns"),
            ("peak_rss_mb".into(), o.peak_rss_mb, "MB"),
        ],
        o.attempted,
        o.failed,
        o.failed == 0 && o.problems.is_empty(),
    );
    Ok(())
}

/// The unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    if name.contains("_ns") || name.contains(".ns_per_") {
        "ns"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_pct") {
        "%"
    } else if [".spawned", ".reused", ".peak_live", ".capacity"]
        .iter()
        .any(|suffix| name.ends_with(suffix))
    {
        "count"
    } else {
        "ratio"
    }
}

fn traced(args: &Args, host: usize) -> Result<(), String> {
    let mut layers = Layers::default();
    let mut logs = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems = Vec::new();

    // The figure pass runs first so the pool counters see a cold pool.
    let figures = sim::figures(&mut layers)?;
    attempted += figures.renders;
    failed += figures.failed;
    logs.push(figures.spans);

    for w in WORKLOADS {
        let full = w == args.workload;
        let budget = Budget {
            seed: args.seed,
            seconds: if full {
                args.seconds
            } else {
                args.seconds.min(1.0)
            },
            sample_setup: false,
        };
        let mut runs = vec![run_workload(w, &budget, true, &mut layers)?];
        if full {
            // The same workload untraced, straight after, for the overhead.
            let plain = run_workload(w, &budget, false, &mut Layers::default())?;
            layers.set(
                "trace.overhead_pct",
                (plain.rate() / runs[0].rate() - 1.0) * 100.0,
            );
            runs.push(plain);
        }
        for o in runs {
            attempted += o.attempted;
            failed += o.failed;
            problems.extend(o.problems);
            logs.extend(o.spans);
        }
    }

    let backlog = backlog::probe(args.seed, &mut layers);
    attempted += backlog.attempted;
    failed += backlog.failed;
    problems.extend(backlog.problems);
    logs.push(backlog.spans);

    layers::probe(&mut layers);
    let replay_failed = sim::probe_layers(host, &mut layers)?;
    attempted += sim::ATTRIBUTION_IDS.len() as u64;
    failed += replay_failed;

    for w in WORKLOADS {
        let theirs: Vec<&SpanLog> = logs.iter().filter(|l| l.track.starts_with(w)).collect();
        for name in [spans::ACQUIRE, spans::RELEASE] {
            layers.set(
                format!("{w}.span.{name}.self_p50_ns"),
                spans::self_p50_ns(&theirs, name),
            );
        }
    }
    let all: Vec<&SpanLog> = logs.iter().collect();
    for name in [spans::FIGURE, spans::CELL] {
        layers.set(
            format!("span.{name}.self_p50_ns"),
            spans::self_p50_ns(&all, name),
        );
    }
    let (json, stats) = spans::export(&logs, &format!("perfbench {}", args.workload))
        .map_err(|e| format!("span export failed validation: {e}"))?;
    let dropped: u64 = logs.iter().map(|l| l.dropped).sum();
    if let Some(path) = &args.trace_out {
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let mut info = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
    ];
    info.extend(resolved_knobs(host));
    info.push((
        "figure_inputs",
        "fixed figure configurations, full mode; no seed".to_string(),
    ));
    info.push(("trace_spans", stats.spans.to_string()));
    info.push(("trace_spans_dropped", dropped.to_string()));
    info.push(("trace_out", args.trace_out.clone().unwrap_or_default()));
    println!("run {}", json_info(&info));
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    let metrics: Vec<(String, f64, &str)> = layers
        .0
        .into_iter()
        .map(|(name, value)| {
            let unit = layer_unit(&name);
            (name, value, unit)
        })
        .collect();
    report(
        &metrics,
        attempted,
        failed,
        failed == 0 && problems.is_empty(),
    );
    Ok(())
}

fn main() {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    pin_knobs(host);
    spans::epoch();
    let result = parse_args().and_then(|args| match args.probe.as_deref() {
        Some("fig1-serial") => sim::fig1_serial_probe(),
        Some(other) => Err(format!("unknown probe {other}")),
        None if args.trace => traced(&args, host),
        None => untraced(&args, host),
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
