//! The simulator's per-layer probes: the 14 deterministic memsim-backed
//! figures rendered in one process, each byte-checked against its
//! committed full-mode output, the engine's cost per simulated op, and the
//! fan-out, pinning and replay attribution rows.

use crate::spans::{self, SpanLog};
use crate::stats::median_of;
use crate::Layers;
use bench::figures::{by_id, Figure};
use bench::Opts;
use std::time::Instant;
use workloads::sweeps::MachineKind;

/// The memsim-backed figures, in registry order.
pub const IDS: [&str; 14] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig9", "table1", "table2", "table3",
    "table4", "fig10", "table5",
];

/// Figures the replay attribution row renders: the serial-tail figures
/// that fragment replay was built for.
pub const ATTRIBUTION_IDS: [&str; 3] = ["fig1", "fig3", "table2"];

/// Fragment length for the replay-on column (bench_sim's default).
const REPLAY_FRAGMENT: &str = "100000";

/// Default-settings options: full sweeps, aligned text.
const OPTS: Opts = Opts {
    csv: false,
    quick: false,
};

/// The fixed figure configurations and their committed full-mode outputs
/// (`results/<binary>.txt`).
fn setup() -> Result<Vec<(&'static Figure, String)>, String> {
    let mut figures = Vec::with_capacity(IDS.len());
    for id in IDS {
        let fig = by_id(id).ok_or_else(|| format!("figure {id} is not registered"))?;
        let path = format!("results/{}.txt", fig.binary);
        let expected =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        figures.push((fig, expected));
    }
    Ok(figures)
}

/// Renders every input figure once; returns per-figure host ns and the
/// number of outputs that differ from the committed bytes.
fn render_all(inputs: &[(&'static Figure, String)], log: Option<&mut SpanLog>) -> (Vec<u64>, u64) {
    let mut times = Vec::with_capacity(inputs.len());
    let mut failed = 0;
    let mut log = log;
    for (fig, expected) in inputs {
        let t0 = Instant::now();
        let out = (fig.render)(&OPTS);
        let dt = t0.elapsed().as_nanos() as u64;
        if let Some(log) = log.as_deref_mut() {
            log.push(spans::FIGURE, spans::ns_since(t0), dt);
        }
        if out != *expected {
            eprintln!(
                "perfbench: {} differs from results/{}.txt",
                fig.id, fig.binary
            );
            failed += 1;
        }
        times.push(dt);
    }
    (times, failed)
}

/// What the figure pass rendered and checked.
pub struct Pass {
    pub renders: u64,
    pub failed: u64,
    pub spans: SpanLog,
}

/// Renders the figure set once with spans on, in a process whose sim
/// pool is still cold: per-figure wall times and the pool's spawned and
/// reused counts over the pass. The inputs are the fixed figure
/// configurations; no seed applies.
pub fn figures(layers: &mut Layers) -> Result<Pass, String> {
    let inputs = setup()?;
    let mut log = SpanLog::new("sim", IDS.len());
    let pool_before = memsim::pool_stats();
    let (times, failed) = render_all(&inputs, Some(&mut log));
    let pool = memsim::pool_stats();
    for ((fig, _), &ns) in inputs.iter().zip(&times) {
        layers.set(format!("bench.figures.{}.wall_ms", fig.id), ns as f64 / 1e6);
    }
    layers.set(
        "memsim.pool.spawned",
        (pool.spawned - pool_before.spawned) as f64,
    );
    layers.set(
        "memsim.pool.reused",
        (pool.reused - pool_before.reused) as f64,
    );
    Ok(Pass {
        renders: times.len() as u64,
        failed,
        spans: log,
    })
}

/// Host ns per simulated `fetch_add` on a `p`-processor bus machine: P=1
/// runs inline, large P is bound by engine handoffs.
fn ns_per_sim_op(p: usize, iters: usize) -> Result<f64, String> {
    let machine = MachineKind::Bus.machine(p);
    let (s, report) = median_of(3, || {
        machine.run(p, 1, |proc| {
            for _ in 0..iters {
                proc.fetch_add(0, 1);
            }
        })
    });
    let report = report.map_err(|e| format!("engine probe P={p} failed: {e:?}"))?;
    if report.memory[0] != (p * iters) as u64 {
        return Err(format!(
            "engine probe P={p}: counter {} != {}",
            report.memory[0],
            p * iters
        ));
    }
    Ok(s * 1e9 / (p * iters) as f64)
}

/// Serial fig1 in a child process, optionally under `taskset -c 0`;
/// returns its render seconds, or `None` when `taskset` is not installed.
fn fig1_serial_child(pinned: bool) -> Result<Option<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = if pinned {
        let mut c = std::process::Command::new("taskset");
        c.arg("-c").arg("0").arg(&exe);
        c
    } else {
        std::process::Command::new(&exe)
    };
    cmd.args(["--probe", "fig1-serial"]);
    let out = match cmd.output() {
        Ok(out) => out,
        Err(e) if pinned && e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("fig1 probe failed to start: {e}")),
    };
    if !out.status.success() {
        return Err(format!(
            "fig1 probe exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse::<f64>()
        .map(Some)
        .map_err(|_| format!("fig1 probe printed {text:?}"))
}

/// The `--probe fig1-serial` child: fig1 at fan-out 1, printed as seconds.
pub fn fig1_serial_probe() -> Result<(), String> {
    std::env::set_var("SYNCMECH_SWEEP_THREADS", "1");
    let fig = by_id("fig1").expect("fig1 is registered");
    let t0 = Instant::now();
    let out = (fig.render)(&OPTS);
    let s = t0.elapsed().as_secs_f64();
    let expected = std::fs::read_to_string(format!("results/{}.txt", fig.binary))
        .map_err(|e| e.to_string())?;
    if out != expected {
        return Err("fig1 differs from results/".to_string());
    }
    println!("{s}");
    Ok(())
}

/// A figure's time (ms) from the figure pass: fan-out on, replay off.
fn fanned_ms(layers: &Layers, id: &str) -> Result<f64, String> {
    layers
        .get(&format!("bench.figures.{id}.wall_ms"))
        .ok_or_else(|| format!("no traced {id} time to compare against"))
}

/// The simulator's per-layer probes: engine cost per simulated op, serial
/// fig1 unpinned and pinned, and the fan-out and replay attribution rows.
/// Reads the per-figure times of the figure pass from `layers` as the
/// fan-out-on, replay-off column. Sets and clears the replay knobs;
/// call it while no other thread renders. Returns how many replayed
/// renders differ from the committed bytes.
pub fn probe_layers(host: usize, layers: &mut Layers) -> Result<u64, String> {
    for (p, iters) in [(1, 1_000_000), (8, 2_000), (64, 300)] {
        layers.set(
            format!("memsim.engine.ns_per_sim_op.p{p}"),
            ns_per_sim_op(p, iters)?,
        );
    }
    let serial = fig1_serial_child(false)?.expect("an unpinned child always runs");
    let fanout_speedup = serial * 1e3 / fanned_ms(layers, "fig1")?;
    layers.set("workloads.sweeps.fanout_speedup", fanout_speedup);
    match fig1_serial_child(true)? {
        Some(pinned) => layers.set("memsim.engine.unpinned_over_pinned", serial / pinned),
        None => eprintln!("perfbench: taskset is not installed; unpinned_over_pinned is absent"),
    }

    let inputs: Vec<(&'static Figure, String)> = setup()?
        .into_iter()
        .filter(|(f, _)| ATTRIBUTION_IDS.contains(&f.id))
        .collect();
    std::env::set_var("SYNCMECH_REPLAY_FRAGMENT", REPLAY_FRAGMENT);
    std::env::set_var("SYNCMECH_REPLAY_WORKERS", host.to_string());
    let (times, bad) = render_all(&inputs, None);
    std::env::remove_var("SYNCMECH_REPLAY_FRAGMENT");
    std::env::remove_var("SYNCMECH_REPLAY_WORKERS");
    let replay_off_ms: f64 = ATTRIBUTION_IDS
        .iter()
        .map(|id| fanned_ms(layers, id))
        .sum::<Result<f64, String>>()?;
    let replay_on_ms = times.iter().sum::<u64>() as f64 / 1e6;
    layers.set("memsim.replay.speedup", replay_off_ms / replay_on_ms);
    Ok(bad)
}
