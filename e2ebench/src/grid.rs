//! `paper_grid`: the paper's Fig. 4 path over {tight-link utilization} ×
//! seeds, one blocking `Session` per cell on the `SimTransport` shim,
//! fanned out over the `slops` runner.

use crate::counts::MachineCounts;
use crate::report::Report;
use crate::spans::{SpanLog, Totals};
use crate::stats::{self, mix, per_estimate, ratio, Digest};
use crate::sys;
use monitord::FleetTelemetry;
use netsim::{EngineStats, LinkId, Simulator};
use simprobe::{PaperPath, PaperPathConfig, SimTransport};
use slops::{
    Estimate, ProbeTransport, Session, SlopsConfig, SlopsError, StreamRecord, StreamRequest,
    TrainRecord, TransportError,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use units::{Rate, TimeNs};

/// Tight-link utilizations of the grid, cycled cell by cell.
const UTILS: [f64; 4] = [0.2, 0.4, 0.6, 0.9];
/// Cells whose counts form the deterministic digest.
pub const DIGEST_CELLS: usize = 8;
/// Cells every untraced run completes, whatever the time budget. The
/// duration figures come from these alone: a tail is an order statistic,
/// and over a host-dependent number of cells its percentile would move
/// with the host's speed.
pub const DURATION_CELLS: usize = 200;
/// Runner workers. One: a second busy worker on a 2-CPU host made each
/// event cost up to 30% more CPU, by an amount that drifted within a run
/// and between runs, so the figures measured the host, not the program.
const WORKERS: usize = 1;
/// Upper bound on cells per run (the time budget ends a run long before).
const MAX_CELLS: usize = 1 << 14;

/// Probe accounting and span timing around the blocking shim.
struct Metered<'a> {
    inner: &'a mut SimTransport,
    log: &'a mut SpanLog,
    parent: Option<usize>,
    pkts: u64,
}

impl Metered<'_> {
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce(&mut SimTransport) -> T) -> T {
        let id = self.log.open(name, self.parent);
        let out = f(self.inner);
        self.log.close(id);
        out
    }
}

impl ProbeTransport for Metered<'_> {
    fn send_stream(&mut self, req: &StreamRequest) -> Result<StreamRecord, TransportError> {
        self.pkts += u64::from(req.count);
        self.call("simprobe.send_stream", |t| t.send_stream(req))
    }

    fn send_train(&mut self, len: u32, size: u32) -> Result<TrainRecord, TransportError> {
        self.pkts += u64::from(len);
        self.call("simprobe.send_train", |t| t.send_train(len, size))
    }

    fn rtt(&mut self) -> TimeNs {
        self.call("simprobe.rtt", |t| t.rtt())
    }

    fn idle(&mut self, dur: TimeNs) {
        self.call("simprobe.idle", |t| t.idle(dur))
    }

    fn max_rate(&self) -> Option<Rate> {
        self.inner.max_rate()
    }

    fn elapsed(&self) -> TimeNs {
        self.inner.elapsed()
    }
}

/// One finished grid cell.
pub struct Cell {
    idx: usize,
    /// The path's average avail-bw, Mb/s.
    a_mbps: f64,
    est: Result<Estimate, SlopsError>,
    /// Wall time of the path build and warm-up.
    build_s: f64,
    /// Wall time of the whole cell.
    busy_s: f64,
    /// CPU of the worker thread over the whole cell.
    cpu_s: f64,
    pkts: u64,
    bytes: u64,
    hops: u64,
    /// Engine counters over the session (warm-up excluded).
    eng: EngineStats,
    /// Engine events since construction (warm-up included).
    events_total: u64,
    link_tx_pkts: u64,
    link_drops: u64,
    log: SpanLog,
}

/// Packets transmitted and dropped over every link of `sim`.
pub(crate) fn link_totals(sim: &Simulator) -> (u64, u64) {
    (0..sim.num_links()).fold((0, 0), |(tx, drops), i| {
        let s = &sim.link(LinkId(i as u32)).stats;
        (tx + s.tx_packets, drops + s.drops_overflow + s.drops_fault)
    })
}

/// Engine counters accumulated between two snapshots.
pub(crate) fn delta(after: EngineStats, before: EngineStats) -> EngineStats {
    EngineStats {
        events_processed: after.events_processed - before.events_processed,
        heap_pushes: after.heap_pushes - before.heap_pushes,
        heap_pops: after.heap_pops - before.heap_pops,
        front_hits: after.front_hits - before.front_hits,
        heap_cmp_weight: after.heap_cmp_weight - before.heap_cmp_weight,
        heap_max_depth: after.heap_max_depth,
        shards: after.shards,
        pool_live_max: after.pool_live_max,
    }
}

fn util_label(idx: usize) -> String {
    format!("u{}", UTILS[idx % UTILS.len()])
}

/// Build cell `idx`'s path and measure it once.
fn run_cell(idx: usize, seed: u64, tele: &FleetTelemetry, trace: bool, epoch: Instant) -> Cell {
    let t0 = Instant::now();
    let cpu0 = sys::this_thread_cpu_ns().unwrap_or(0);
    let mut log = SpanLog::new(trace, epoch);
    let root = log.open("bench.cell", None);
    let mut cfg = PaperPathConfig::default();
    cfg.tight_util = UTILS[idx % UTILS.len()];
    let a_mbps = cfg.avail_bw().mbps();
    let build = log.open("simprobe.build", root);
    let path = PaperPath::build(&cfg, mix(seed, idx as u64));
    log.close(build);
    let build_s = t0.elapsed().as_secs_f64();
    let mut transport = path.into_transport();
    let hops = transport.chain().forward.len() as u64;
    let eng0 = transport.sim().engine_stats();
    let (tx0, drops0) = link_totals(transport.sim());
    let session =
        Session::new(SlopsConfig::default()).with_trace_sink(tele.trace_sink(&util_label(idx)));
    let run = log.open("slops.session", root);
    let mut metered = Metered {
        inner: &mut transport,
        log: &mut log,
        parent: run,
        pkts: 0,
    };
    let est = session.run(&mut metered);
    let pkts = metered.pkts;
    log.close(run);
    let (tx1, drops1) = link_totals(transport.sim());
    let eng1 = transport.sim().engine_stats();
    log.close(root);
    Cell {
        idx,
        a_mbps,
        est,
        build_s,
        busy_s: t0.elapsed().as_secs_f64(),
        cpu_s: sys::this_thread_cpu_ns().unwrap_or(0).saturating_sub(cpu0) as f64 / 1e9,
        pkts,
        bytes: transport.probe_bytes_sent,
        hops,
        eng: delta(eng1, eng0),
        events_total: eng1.events_processed,
        link_tx_pkts: tx1 - tx0,
        link_drops: drops1 - drops0,
        log,
    }
}

impl Cell {
    /// Did the cell's range cover the path's avail-bw?
    fn covered(&self) -> bool {
        self.est
            .as_ref()
            .is_ok_and(|e| stats::covers(e.low.mbps(), e.high.mbps(), self.a_mbps))
    }

    /// Fold this cell's deterministic outcome into `d`.
    fn digest(&self, d: &mut Digest) {
        d.add(self.idx as u64);
        match &self.est {
            Ok(e) => {
                d.add(e.low.bps().to_bits());
                d.add(e.high.bps().to_bits());
                d.add(e.elapsed.as_nanos());
                d.add(e.fleets.len() as u64);
                d.add(u64::from(stats::covers(
                    e.low.mbps(),
                    e.high.mbps(),
                    self.a_mbps,
                )));
            }
            Err(_) => d.add(u64::MAX),
        }
        d.add(self.events_total);
        d.add(self.eng.events_processed);
        d.add(self.pkts);
        d.add(self.bytes);
    }
}

/// One closed-loop grid run.
pub struct GridRun {
    cells: Vec<Cell>,
    wall_s: f64,
    cpu_s: f64,
    tele: FleetTelemetry,
    render_us: f64,
}

/// Run grid cells on [`WORKERS`] runner threads until `seconds` have
/// passed and the current utilization cycle is complete; the first
/// `min_cells` cells always run.
pub fn run(seed: u64, seconds: f64, trace: bool, min_cells: usize) -> Result<GridRun, String> {
    let tele = FleetTelemetry::new();
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let cpu0 = sys::process_cpu_s().map_err(|e| e.to_string())?;
    let open = AtomicBool::new(true);
    let jobs: Vec<_> = (0..MAX_CELLS)
        .map(|idx| {
            let tele = &tele;
            let open = &open;
            move |_| {
                // A cycle through every utilization, once begun, runs to
                // its end, so each run measures the same mix.
                if idx % UTILS.len() == 0 && idx >= min_cells && Instant::now() >= deadline {
                    open.store(false, Ordering::Relaxed);
                }
                open.load(Ordering::Relaxed)
                    .then(|| run_cell(idx, seed, tele, trace, epoch))
            }
        })
        .collect();
    let cells: Vec<Cell> = slops::run_parallel(jobs, WORKERS)
        .into_iter()
        .flatten()
        .collect();
    let wall_s = epoch.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s().map_err(|e| e.to_string())? - cpu0;
    let render_us = crate::render_us(&tele);
    Ok(GridRun {
        cells,
        wall_s,
        cpu_s,
        tele,
        render_us,
    })
}

impl GridRun {
    /// The span logs of every cell.
    pub fn logs(&self) -> Vec<&SpanLog> {
        self.cells.iter().map(|c| &c.log).collect()
    }

    fn estimates(&self) -> Vec<&Estimate> {
        self.cells
            .iter()
            .filter_map(|c| c.est.as_ref().ok())
            .collect()
    }

    /// Per-estimate cost of every complete utilization cycle, ms:
    /// `(worker CPU, worker wall / workers)`. Cycles hold the same mix,
    /// so their median is steady where a burst of host load is not.
    fn cycle_costs(&self) -> Result<(Vec<f64>, Vec<f64>), String> {
        let (mut cpu, mut wall) = (Vec::new(), Vec::new());
        for cycle in self.cells.chunks(UTILS.len()) {
            if cycle.len() < UTILS.len() {
                continue;
            }
            let n = cycle.iter().filter(|c| c.est.is_ok()).count() as u64;
            let sum = |f: fn(&Cell) -> f64| cycle.iter().map(f).sum::<f64>() * 1e3;
            cpu.push(per_estimate(sum(|c| c.cpu_s), n, "cycle cpu")?);
            wall.push(per_estimate(
                sum(|c| c.busy_s) / WORKERS as f64,
                n,
                "cycle wall",
            )?);
        }
        Ok((cpu, wall))
    }

    /// Median CPU per finished estimate over the cycles, milliseconds.
    pub fn cpu_ms_per_estimate(&self) -> Result<f64, String> {
        stats::median(&self.cycle_costs()?.0)
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for c in self.cells.iter().filter(|c| c.idx < DIGEST_CELLS) {
            c.digest(&mut d);
        }
        d.value()
    }

    /// Checks and end-to-end metrics of an untraced run.
    pub fn end_to_end(&self, seed: u64, rep: &mut Report) {
        let n = self.estimates().len() as u64;
        rep.attempted = self.cells.len() as u64;
        rep.failed = rep.attempted - n;
        self.checks(seed, rep);
        let builds: Vec<f64> = self.cells.iter().map(|c| c.build_s).collect();
        rep.put("setup_s", stats::median(&builds));
        let costs = self.cycle_costs();
        rep.put(
            "cpu_ms_per_estimate",
            costs.clone().and_then(|c| stats::median(&c.0)),
        );
        rep.put(
            "wall_ms_per_estimate",
            costs.and_then(|c| stats::median(&c.1)),
        );
        let durations: Vec<f64> = self.cells[..DURATION_CELLS.min(self.cells.len())]
            .iter()
            .filter_map(|c| c.est.as_ref().ok())
            .map(|e| e.elapsed.secs_f64())
            .collect();
        rep.note(format!(
            "durations over the first {} estimates",
            durations.len()
        ));
        crate::put_durations(rep, durations, Some(crate::SIM_DURATION_STEP_S));
        let covered = self.cells.iter().filter(|c| c.covered()).count();
        rep.put("coverage", ratio(covered as f64, n as f64, "coverage"));
        let ests = self.estimates();
        crate::put_rel_width(rep, ests.iter().map(|e| (e.low.bps(), e.high.bps())));
        let pkts: u64 = self.cells.iter().map(|c| c.pkts).sum();
        rep.put(
            "probe_pkts_per_estimate",
            per_estimate(pkts as f64, n, "probe packets"),
        );
        rep.put(
            "harvested_share",
            ratio(n as f64, rep.attempted as f64, "harvested share"),
        );
        rep.put("peak_rss_mb", sys::peak_rss_mb().map_err(|e| e.to_string()));
    }

    fn checks(&self, seed: u64, rep: &mut Report) {
        let ests = self.estimates();
        rep.check(
            "every estimate has 0 <= low <= high",
            ests.iter().all(|e| 0.0 <= e.low.bps() && e.low <= e.high),
        );
        rep.check(
            &format!("the first {DIGEST_CELLS} cells ran"),
            (0..DIGEST_CELLS).all(|i| self.cells.iter().any(|c| c.idx == i)),
        );
        // Determinism inside the run: cell 0 again, untraced, must match.
        let mut a = Digest::default();
        let mut b = Digest::default();
        if let Some(c) = self.cells.first() {
            c.digest(&mut a);
        }
        run_cell(0, seed, &FleetTelemetry::new(), false, Instant::now()).digest(&mut b);
        rep.check(
            "cell 0 re-run reproduces its counts",
            a.value() == b.value(),
        );
        // The registry saw exactly what the estimates carry.
        let labels: Vec<String> = (0..UTILS.len()).map(util_label).collect();
        let counts = MachineCounts::read(&self.tele, &labels);
        let streams: usize = ests
            .iter()
            .flat_map(|e| &e.fleets)
            .map(|f| f.stream_classes.len())
            .sum();
        let fleets: usize = ests.iter().map(|e| e.fleets.len()).sum();
        rep.check(
            "registry stream/fleet counts match the estimates",
            counts.streams == streams as u64 && counts.fleets == fleets as u64,
        );
        let pkts: u64 = self.cells.iter().map(|c| c.pkts).sum();
        rep.check(
            "probe packets sent match the registry's stream counts",
            counts.probe_pkts(&SlopsConfig::default(), self.cells.len() as u64) == pkts,
        );
        let events: u64 = self.cells.iter().map(|c| c.eng.events_processed).sum();
        let bytes: u64 = self.cells.iter().map(|c| c.bytes).sum();
        let covered = self
            .cells
            .iter()
            .take(DIGEST_CELLS)
            .filter(|c| c.covered())
            .count();
        let digest = self.digest();
        rep.note(format!(
            "cells {} on {} workers in {:.2} s; estimates {}; events {events}; probe bytes {bytes}",
            self.cells.len(),
            WORKERS,
            self.wall_s,
            ests.len()
        ));
        rep.note(format!(
            "digest of the first {DIGEST_CELLS} cells (estimates, events, probe bytes, \
             coverage {covered}/{DIGEST_CELLS}): {digest:#018x}"
        ));
        crate::check_recorded_digest(rep, "paper_grid", seed, digest);
    }

    /// Per-layer metrics of a traced run; `untraced_cpu_ms` is the same
    /// workload's CPU per estimate without spans.
    pub fn per_layer(&self, seed: u64, untraced_cpu_ms: Result<f64, String>, rep: &mut Report) {
        let ests = self.estimates();
        let n = ests.len() as u64;
        rep.attempted = self.cells.len() as u64;
        rep.failed = rep.attempted - n;
        self.checks(seed, rep);
        let sum = |f: fn(&Cell) -> u64| self.cells.iter().map(f).sum::<u64>() as f64;
        let events = sum(|c| c.eng.events_processed);
        let heap_ops = sum(|c| c.eng.heap_ops());
        let front = sum(|c| c.eng.front_hits);
        rep.put(
            "netsim.events_per_estimate",
            per_estimate(events, n, "events"),
        );
        rep.put(
            "netsim.heap_ops_per_event",
            ratio(heap_ops, events, "heap ops"),
        );
        rep.put(
            "netsim.cmp_weight_per_event",
            ratio(sum(|c| c.eng.heap_cmp_weight), events, "cmp weight"),
        );
        rep.put(
            "netsim.front_hit_share",
            ratio(front, front + heap_ops, "front hits"),
        );
        let max = |f: fn(&Cell) -> usize| self.cells.iter().map(f).max().unwrap_or(0) as f64;
        rep.put("netsim.heap_max_depth", Ok(max(|c| c.eng.heap_max_depth)));
        rep.put("netsim.pool_peak", Ok(max(|c| c.eng.pool_live_max)));
        rep.put("netsim.shards", Ok(max(|c| c.eng.shards)));
        rep.put(
            "netsim.link_drops_per_estimate",
            per_estimate(sum(|c| c.link_drops), n, "drops"),
        );
        let probe_hops = sum(|c| c.pkts * c.hops);
        rep.put(
            "traffic.xt_pkts_per_estimate",
            per_estimate(sum(|c| c.link_tx_pkts) - probe_hops, n, "cross packets"),
        );
        let mut totals = Totals::default();
        for c in &self.cells {
            totals.add(&c.log);
        }
        let builds: Vec<f64> = self.cells.iter().map(|c| c.build_s * 1e3).collect();
        rep.put("simprobe.build_ms", stats::median(&builds));
        let transport_ns: u64 = [
            "simprobe.send_stream",
            "simprobe.send_train",
            "simprobe.rtt",
            "simprobe.idle",
        ]
        .iter()
        .map(|s| totals.name_ns(s))
        .sum();
        rep.put(
            "simprobe.transport_ms_per_estimate",
            per_estimate(transport_ns as f64 / 1e6, n, "transport time"),
        );
        rep.put(
            "simprobe.probe_kb_per_estimate",
            per_estimate(sum(|c| c.bytes) / 1e3, n, "probe bytes"),
        );
        rep.put(
            "slops.machine_self_ms_per_estimate",
            per_estimate(totals.layer_ns("slops") as f64 / 1e6, n, "machine time"),
        );
        let labels: Vec<String> = (0..UTILS.len()).map(util_label).collect();
        crate::put_machine_counts(rep, &MachineCounts::read(&self.tele, &labels), n);
        rep.put(
            "slops.runner_busy_share",
            ratio(
                sum(|c| (c.busy_s * 1e9) as u64) / 1e9,
                WORKERS as f64 * self.wall_s,
                "busy",
            ),
        );
        crate::put_absent(rep, &["monitord", "sockets"]);
        rep.put("telemetry.render_us", Ok(self.render_us));
        crate::put_overhead(rep, self.cpu_ms_per_estimate(), untraced_cpu_ms);
        crate::put_layers(rep, &totals, self.cpu_s, &[]);
    }
}
