//! The repository's benchmark: end-to-end and per-layer figures of the
//! in-sim fleet and the `monitord` wire stack. See `README.md` here.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper_grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the
//! workload twice (untraced, then with spans) for half the time each and
//! prints every per-layer metric. The last line of standard output is the
//! result as one JSON object. `--workload all` runs every workload in turn.

#![forbid(unsafe_code)]

mod counts;
mod fleet;
mod grid;
mod report;
mod spans;
mod stats;
mod sys;
mod wire;

use counts::MachineCounts;
use monitord::FleetTelemetry;
use report::{Report, END_TO_END, LAYERS, PER_LAYER};
use spans::Totals;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads `BENCHMARK.json` lists, with why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("paper_grid", "the paper's Fig. 4 accuracy grid: single-queue netsim, traffic, the slops machine and runner; no scheduler, sharding or sockets"),
    ("fleet_disjoint", "the in-sim fleet at scale: monitord scheduler, store and export over the sharded netsim with light cross traffic"),
];

/// Workloads run by name or with `all`, but not listed in
/// `BENCHMARK.json`: their figures follow the host's stalls too closely
/// on a shared 2-CPU host to gate a change (see README.md).
const EXTRA_WORKLOADS: &[(&str, &str)] = &[
    ("wire_async", "the real-socket product on loopback: the one-thread event-loop sender, evented receiver, mux, batching and pacing"),
    ("wire_thread", "the same loopback fleet on the blocking SocketTransport sender, the stack a sender fold would replace"),
];

/// Budget for the instrumentation overhead, percent.
const TRACE_BUDGET_PCT: f64 = 5.0;
/// Target for the CPU no layer accounts for.
const UNATTRIBUTED_TARGET: f64 = 0.20;
/// Samples a timing tail must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// Recorded seeds and the deterministic digests of the sim workloads.
const DIGESTS: &str = include_str!("../digests.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or(format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seed = match seed {
        Some(s) => s,
        None => recorded_seed("default").ok_or("no default seed in digests.txt")?,
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.unwrap_or(20.0),
        trace,
    })
}

/// A seed recorded in `digests.txt` under `role` (`default`, `heldout`).
fn recorded_seed(role: &str) -> Option<u64> {
    DIGESTS.lines().find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        (f.len() == 3 && f[0] == "seed" && f[1] == role).then(|| f[2].parse().ok())?
    })
}

/// Compare `digest` with the one recorded for (`workload`, `seed`), if any.
pub fn check_recorded_digest(rep: &mut Report, workload: &str, seed: u64, digest: u64) {
    let want = DIGESTS.lines().find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        (f.len() == 4 && f[0] == "digest" && f[1] == workload && f[2] == seed.to_string())
            .then(|| u64::from_str_radix(f[3].trim_start_matches("0x"), 16).ok())?
    });
    match want {
        Some(w) => rep.check(
            &format!("digest matches the one recorded for seed {seed} ({w:#018x})"),
            w == digest,
        ),
        None => rep.note(format!("no digest recorded for seed {seed}")),
    }
}

/// Median time to render the registry as a scrape, microseconds.
pub fn render_us(tele: &FleetTelemetry) -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(tele.registry().render_prometheus());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times).unwrap_or(0.0)
}

/// Simulated measurement durations are quantized: the in-sim drivers
/// check for a finished stream every 5 ms of simulated time.
pub const SIM_DURATION_STEP_S: f64 = 0.005;

/// `time_to_estimate_s_p50` and `_tail` from measurement durations. With
/// a quantization `step`, both are interpolated inside their grid bin
/// ([`stats::grouped`]); many sessions share one duration, and the raw
/// order statistic would sit on the same grid value run after run.
pub fn put_durations(rep: &mut Report, mut durations_s: Vec<f64>, step: Option<f64>) {
    durations_s.sort_by(f64::total_cmp);
    let n = durations_s.len();
    let at = |rank: f64, raw: f64| match step {
        Some(h) => stats::grouped(&durations_s, rank, h),
        None => raw,
    };
    rep.put(
        "time_to_estimate_s_p50",
        stats::median(&durations_s).map(|m| at(n as f64 / 2.0, m)),
    );
    match stats::tail(&durations_s, TAIL_BEYOND) {
        Ok(t) => {
            rep.note(format!(
                "time to estimate: tail is p{:.1} of n = {} ({} samples beyond it)",
                t.percentile, t.n, TAIL_BEYOND
            ));
            rep.put(
                "time_to_estimate_s_tail",
                Ok(at((n - TAIL_BEYOND) as f64, t.value)),
            );
        }
        Err(e) => rep.put("time_to_estimate_s_tail", Err(e)),
    }
}

/// `rel_width`: mean ρ (eq. 12) over the ranges, given in bit/s.
pub fn put_rel_width(rep: &mut Report, ranges: impl Iterator<Item = (f64, f64)>) {
    let rhos: Result<Vec<f64>, String> = ranges.map(|(lo, hi)| stats::rho(lo, hi)).collect();
    rep.put(
        "rel_width",
        rhos.and_then(|r| stats::ratio(r.iter().sum(), r.len() as f64, "rel width")),
    );
}

/// The `slops` verdict metrics, from the registry counts.
pub fn put_machine_counts(rep: &mut Report, c: &MachineCounts, estimates: u64) {
    rep.put(
        "slops.fleets_per_estimate",
        stats::per_estimate(c.fleets as f64, estimates, "fleets"),
    );
    rep.put(
        "slops.streams_per_estimate",
        stats::per_estimate(c.streams as f64, estimates, "streams"),
    );
    rep.put(
        "slops.unusable_stream_share",
        stats::ratio(c.unusable as f64, c.streams as f64, "unusable share"),
    );
    rep.put(
        "slops.grey_fleet_share",
        stats::ratio(c.grey as f64, c.fleets as f64, "grey share"),
    );
    rep.put(
        "slops.lossy_fleet_share",
        stats::ratio(c.lossy as f64, c.fleets as f64, "lossy share"),
    );
}

/// Zero every per-layer metric of `layers`: the workload bypasses them.
pub fn put_absent(rep: &mut Report, layers: &[&str]) {
    for (name, _) in PER_LAYER {
        if layers.contains(&spans::layer(name)) {
            rep.put(name, Ok(0.0));
        }
    }
}

/// `telemetry.trace_overhead_pct`: traced vs untraced CPU per estimate.
pub fn put_overhead(rep: &mut Report, traced: Result<f64, String>, untraced: Result<f64, String>) {
    let pct = traced.and_then(|t| Ok((t / untraced? - 1.0) * 100.0));
    if let Ok(p) = pct {
        rep.note(format!(
            "trace overhead {p:+.2}% of cpu per estimate (budget {TRACE_BUDGET_PCT}%: {})",
            if p <= TRACE_BUDGET_PCT {
                "within"
            } else {
                "over"
            }
        ));
    }
    rep.put("telemetry.trace_overhead_pct", pct);
}

/// The `layers` table: each layer's self time as a share of the run's
/// process CPU, plus what no layer accounts for. `threads` gives a
/// layer's CPU directly (wire: per-thread CPU) instead of its span time.
pub fn put_layers(rep: &mut Report, totals: &Totals, cpu_s: f64, threads: &[(&str, f64)]) {
    let mut line = String::from("layers:");
    let mut attributed = 0.0;
    for layer in LAYERS {
        let s = threads
            .iter()
            .find(|(l, _)| l == layer)
            .map_or(totals.layer_ns(layer) as f64 / 1e9, |(_, s)| *s);
        let share = stats::ratio(s, cpu_s, "layer share");
        if let Ok(v) = share {
            attributed += v;
            line.push_str(&format!(" {layer} {:.1}%", v * 100.0));
        }
        rep.put(&format!("layers.{layer}_share"), share);
    }
    let rest = 1.0 - attributed;
    line.push_str(&format!(
        " unattributed {:.1}% (target < {:.0}%: {})",
        rest * 100.0,
        UNATTRIBUTED_TARGET * 100.0,
        if rest < UNATTRIBUTED_TARGET {
            "met"
        } else {
            "not met"
        }
    ));
    rep.note(line);
    rep.put("layers.unattributed_share", Ok(rest));
}

/// Write the traced run's spans where the run started.
fn write_spans(name: &str, seed: u64, logs: &[&spans::SpanLog]) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{name}-seed{seed}.tsv"));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans::to_tsv(logs)));
    if let Err(e) = written {
        eprintln!("e2ebench: cannot write {}: {e}", path.display());
    }
}

fn run_workload(name: &str, a: &Args) -> Result<Report, String> {
    let w = WORKLOADS
        .iter()
        .chain(EXTRA_WORKLOADS)
        .find(|w| w.0 == name)
        .ok_or(format!("unknown workload {name}"))?;
    let mut rep = Report::new(w.0);
    let half = a.seconds / 2.0;
    match (name, a.trace) {
        ("paper_grid", false) => {
            grid::run(a.seed, a.seconds, false, grid::DURATION_CELLS)?.end_to_end(a.seed, &mut rep)
        }
        ("paper_grid", true) => {
            let base = grid::run(a.seed, half, false, grid::DIGEST_CELLS)?.cpu_ms_per_estimate();
            let traced = grid::run(a.seed, half, true, grid::DIGEST_CELLS)?;
            traced.per_layer(a.seed, base, &mut rep);
            write_spans(name, a.seed, &traced.logs());
        }
        ("fleet_disjoint", false) => {
            fleet::run(a.seed, a.seconds, false)?.end_to_end(a.seed, &mut rep)
        }
        ("fleet_disjoint", true) => {
            let base = fleet::run(a.seed, half, false)?.cpu_ms_per_estimate();
            let traced = fleet::run(a.seed, half, true)?;
            traced.per_layer(a.seed, base, &mut rep);
            write_spans(name, a.seed, &traced.logs());
        }
        (_, trace) => {
            let driver = if name == "wire_async" {
                wire::Driver::Async
            } else {
                wire::Driver::Thread
            };
            if trace {
                let base = wire::run(driver, a.seed, half, false)?.cpu_ms_per_estimate();
                let traced = wire::run(driver, a.seed, half, true)?;
                traced.per_layer(base, &mut rep);
                write_spans(name, a.seed, &traced.logs());
            } else {
                wire::run(driver, a.seed, a.seconds, false)?.end_to_end(&mut rep);
            }
        }
    }
    rep.require(if a.trace { PER_LAYER } else { END_TO_END });
    Ok(rep)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS
            .iter()
            .chain(EXTRA_WORKLOADS)
            .map(|w| w.0)
            .collect()
    } else {
        vec![args.workload.as_str()]
    };
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    let mut ok = true;
    for name in names {
        match run_workload(name, &args) {
            Ok(rep) => {
                print!("{}", rep.render(set));
                println!("{}", rep.json(set));
                ok &= rep.correct();
            }
            Err(e) => {
                eprintln!("e2ebench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
