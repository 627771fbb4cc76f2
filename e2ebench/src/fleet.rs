//! `fleet_disjoint`: the in-sim fleet product. Rounds of a
//! `SimFleetMonitor` over many disjoint one-hop paths (5/10/20 Mb/s, two
//! Pareto sources at 20 %), on the sharded engine with uncapped
//! concurrency, each round built, run to its horizon, stored and
//! exported.

use crate::counts::MachineCounts;
use crate::report::Report;
use crate::spans::{SpanLog, Totals};
use crate::stats::{self, mix, per_estimate, ratio, Digest};
use crate::sys;
use monitord::{
    export, FleetTelemetry, PathSeries, ScheduleConfig, SeriesConfig, SimFleetMonitor, SimPathSpec,
};
use netsim::app::CountingSink;
use netsim::{AppId, Chain, ChainConfig, EngineStats, LinkConfig, LinkId, RouteSpec, Simulator};
use slops::series::RangeSample;
use slops::SlopsConfig;
use std::time::{Duration, Instant};
use traffic::{attach_sources, CrossTrafficSource, SourceConfig};
use units::{Rate, TimeNs};

/// Paths per fleet round.
pub const PATHS: usize = 64;
const CAPACITIES_MBPS: [f64; 3] = [5.0, 10.0, 20.0];
const CROSS_UTIL: f64 = 0.20;
const SOURCES_PER_PATH: usize = 2;
const WARMUP: TimeNs = TimeNs::from_millis(500);
/// No measurement starts later than this after warm-up.
const HORIZON: TimeNs = TimeNs::from_secs(8);
const PERIOD: TimeNs = TimeNs::from_secs(4);
const JITTER: TimeNs = TimeNs::from_secs(2);
/// Simulated time per `run_until` call.
const SLICE: TimeNs = TimeNs::from_millis(500);

/// One path's handles kept for probe-byte accounting.
struct PathIds {
    link: LinkId,
    sources: Vec<AppId>,
    a_mbps: f64,
}

/// Build one round's fleet: the topology, cross traffic and warm-up.
fn build(seed: u64) -> (Simulator, Vec<SimPathSpec>, Vec<PathIds>) {
    let mut sim = Simulator::new(seed);
    let mut specs = Vec::with_capacity(PATHS);
    let mut ids = Vec::with_capacity(PATHS);
    for i in 0..PATHS {
        let cap = Rate::from_mbps(CAPACITIES_MBPS[i % CAPACITIES_MBPS.len()]);
        let link = LinkConfig::new(cap, TimeNs::from_millis(10))
            .with_queue_limit(8 * 1024 * 1024)
            .with_name(format!("p{i}hop0"));
        let chain = Chain::build(&mut sim, &ChainConfig::symmetric(vec![link]));
        let links: Vec<LinkId> = chain
            .forward
            .iter()
            .chain(&chain.reverse)
            .copied()
            .collect();
        sim.bind_links(&links);
        let sink = sim.add_app(Box::new(CountingSink::default()));
        sim.bind_app(
            sink,
            &RouteSpec {
                links: vec![chain.forward[0]],
                dst: sink,
            },
        );
        let route = chain.hop_route(&sim, 0, sink);
        let sources = attach_sources(
            &mut sim,
            route,
            cap * CROSS_UTIL,
            SOURCES_PER_PATH,
            &SourceConfig::paper_pareto(),
        );
        ids.push(PathIds {
            link: chain.forward[0],
            sources,
            a_mbps: cap.mbps() * (1.0 - CROSS_UTIL),
        });
        specs.push(SimPathSpec {
            label: format!("p{i}"),
            chain,
            cfg: SlopsConfig::default(),
        });
    }
    let warm = sim.now() + WARMUP;
    sim.run_until(warm);
    (sim, specs, ids)
}

/// One finished fleet round.
struct Round {
    series: Vec<PathSeries>,
    a_mbps: Vec<f64>,
    started: u64,
    shards: usize,
    /// Wall time of the build, warm-up and monitor construction.
    setup_s: f64,
    /// CPU and wall time of the whole round (one thread runs it).
    cpu_s: f64,
    wall_s: f64,
    eng: EngineStats,
    /// Packets the links transmitted after warm-up.
    link_tx_pkts: u64,
    link_drops: u64,
    /// Link bytes not accounted for by cross traffic: the probes.
    probe_bytes: i128,
    export_lines: usize,
    log: SpanLog,
}

fn run_round(
    seed: u64,
    trace: bool,
    epoch: Instant,
    tele: &FleetTelemetry,
) -> Result<Round, String> {
    let t0 = Instant::now();
    let cpu0 = sys::this_thread_cpu_ns().map_err(|e| e.to_string())?;
    let mut log = SpanLog::new(trace, epoch);
    let root = log.open("bench.round", None);
    let (sim, specs, ids) = log.time("simprobe.build", root, || build(seed));
    let horizon = sim.now() + HORIZON;
    let sched = ScheduleConfig {
        period: PERIOD,
        jitter: JITTER,
        max_concurrent: 0,
        seed,
    };
    let mut mon = log
        .time("monitord.new", root, || {
            SimFleetMonitor::new(sim, specs, &sched, &SeriesConfig::default(), horizon)
        })
        .map_err(|e| e.to_string())?;
    mon.attach_telemetry(tele);
    let setup_s = t0.elapsed().as_secs_f64();
    let eng0 = mon.engine_stats();
    let (tx0, _) = crate::grid::link_totals(mon.sim());
    // Closed loop: the scheduler starts each path's next measurement once
    // its period has passed and its last one finished; run until every
    // started measurement is harvested and no more may start.
    loop {
        let harvested: u64 = mon.series().iter().map(|s| s.len() as u64).sum();
        if mon.sim().now() >= horizon && harvested == mon.measurements_started() {
            break;
        }
        let t = mon.sim().now() + SLICE;
        log.time("monitord.run_until", root, || mon.run_until(t));
    }
    let eng = crate::grid::delta(mon.engine_stats(), eng0);
    let sim = mon.sim();
    let mut probe_bytes = 0i128;
    let mut link_drops = 0;
    for p in &ids {
        let link = sim.link(p.link);
        let cross: u64 = p
            .sources
            .iter()
            .map(|s| sim.app::<CrossTrafficSource>(*s).bytes_sent)
            .sum();
        // With no drops (checked), every byte offered to the link is
        // transmitted or still queued. The probes have all finished, so
        // whatever the cross sources did not send is probe bytes.
        probe_bytes +=
            i128::from(link.stats.tx_bytes) + i128::from(link.backlog_bytes()) - i128::from(cross);
        link_drops += link.stats.drops_overflow + link.stats.drops_fault;
    }
    let link_tx_pkts = crate::grid::link_totals(sim).0 - tx0;
    let started = mon.measurements_started();
    let shards = mon.shards();
    let series = mon.into_series();
    // The daemon's store and export layers, as monitord runs them.
    log.time("monitord.store", root, || {
        for s in &series {
            std::hint::black_box((s.windows(), s.changes(), s.stats()));
        }
    });
    let mut out = Vec::new();
    log.time("monitord.export", root, || {
        export::write_fleet_jsonl(&mut out, &series)
    })
    .map_err(|e| e.to_string())?;
    let export_lines = String::from_utf8_lossy(&out)
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"sample\""))
        .count();
    log.close(root);
    let cpu_s = (sys::this_thread_cpu_ns().map_err(|e| e.to_string())? - cpu0) as f64 / 1e9;
    Ok(Round {
        series,
        a_mbps: ids.iter().map(|p| p.a_mbps).collect(),
        started,
        shards,
        setup_s,
        cpu_s,
        wall_s: t0.elapsed().as_secs_f64(),
        eng,
        link_tx_pkts,
        link_drops,
        probe_bytes,
        export_lines,
        log,
    })
}

impl Round {
    fn samples(&self) -> impl Iterator<Item = (f64, &RangeSample)> {
        self.series
            .iter()
            .zip(&self.a_mbps)
            .flat_map(|(s, a)| s.samples().map(move |r| (*a, r)))
    }

    fn harvested(&self) -> u64 {
        self.series.iter().map(|s| s.len() as u64).sum()
    }

    fn covered(&self) -> usize {
        self.samples()
            .filter(|(a, r)| stats::covers(r.low.mbps(), r.high.mbps(), *a))
            .count()
    }
}

/// One closed-loop run: fleet rounds until the time budget is spent.
pub struct FleetRun {
    rounds: Vec<Round>,
    wall_s: f64,
    cpu_s: f64,
    run_s: f64,
    tele: FleetTelemetry,
    render_us: f64,
}

/// Run fleet rounds until `seconds` have passed (round 0 always runs).
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<FleetRun, String> {
    let tele = FleetTelemetry::new();
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let cpu0 = sys::process_cpu_s().map_err(|e| e.to_string())?;
    let mut rounds = Vec::new();
    while rounds.is_empty() || Instant::now() < deadline {
        rounds.push(run_round(
            mix(seed, rounds.len() as u64),
            trace,
            epoch,
            &tele,
        )?);
    }
    let wall_s = epoch.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s().map_err(|e| e.to_string())? - cpu0;
    let mut totals = Totals::default();
    for r in &rounds {
        totals.add(&r.log);
    }
    let render_us = crate::render_us(&tele);
    Ok(FleetRun {
        run_s: totals.name_ns("monitord.run_until") as f64 / 1e9,
        rounds,
        wall_s,
        cpu_s,
        tele,
        render_us,
    })
}

/// Scheduler overruns and the deepest backlog, reconstructed from the
/// series with the scheduler's own rules: a path is due `PERIOD` after
/// its last start, overruns when it finishes later than that, and waits
/// in the backlog from the later of the two until its next start.
fn schedule_view(series: &[PathSeries]) -> (u64, u64) {
    let mut overruns = 0;
    let mut edges: Vec<(u64, i64)> = Vec::new();
    for s in series {
        let v: Vec<&RangeSample> = s.samples().collect();
        for (k, r) in v.iter().enumerate() {
            if r.duration > PERIOD {
                overruns += 1;
            }
            if let Some(next) = v.get(k + 1) {
                let waiting = (r.started + PERIOD).max(r.end());
                if waiting < next.started {
                    edges.push((waiting.as_nanos(), 1));
                    edges.push((next.started.as_nanos(), -1));
                }
            }
        }
    }
    edges.sort_unstable();
    let (mut depth, mut max) = (0i64, 0i64);
    for (_, step) in edges {
        depth += step;
        max = max.max(depth);
    }
    (overruns, max as u64)
}

impl FleetRun {
    /// The span logs of every round.
    pub fn logs(&self) -> Vec<&SpanLog> {
        self.rounds.iter().map(|r| &r.log).collect()
    }

    fn harvested(&self) -> u64 {
        self.rounds.iter().map(Round::harvested).sum()
    }

    fn started(&self) -> u64 {
        self.rounds.iter().map(|r| r.started).sum()
    }

    /// Per-estimate cost of every round, ms: `(cpu, wall)`. Rounds are
    /// alike, so their median is steady where a burst of host load is not.
    fn round_costs(&self) -> Result<(Vec<f64>, Vec<f64>), String> {
        let (mut cpu, mut wall) = (Vec::new(), Vec::new());
        for r in &self.rounds {
            cpu.push(per_estimate(r.cpu_s * 1e3, r.harvested(), "round cpu")?);
            wall.push(per_estimate(r.wall_s * 1e3, r.harvested(), "round wall")?);
        }
        Ok((cpu, wall))
    }

    /// Median CPU per finished estimate over the rounds, milliseconds.
    pub fn cpu_ms_per_estimate(&self) -> Result<f64, String> {
        stats::median(&self.round_costs()?.0)
    }

    fn labels() -> Vec<String> {
        (0..PATHS).map(|i| format!("p{i}")).collect()
    }

    /// Checks and end-to-end metrics of an untraced run.
    pub fn end_to_end(&self, seed: u64, rep: &mut Report) {
        let n = self.harvested();
        rep.attempted = self.started();
        rep.failed = rep.attempted.saturating_sub(n);
        self.checks(seed, rep);
        let setups: Vec<f64> = self.rounds.iter().map(|r| r.setup_s).collect();
        rep.put("setup_s", stats::median(&setups));
        let costs = self.round_costs();
        rep.put(
            "cpu_ms_per_estimate",
            costs.clone().and_then(|c| stats::median(&c.0)),
        );
        rep.put(
            "wall_ms_per_estimate",
            costs.and_then(|c| stats::median(&c.1)),
        );
        let samples: Vec<&RangeSample> = self
            .rounds
            .iter()
            .flat_map(|r| r.samples().map(|s| s.1))
            .collect();
        crate::put_durations(
            rep,
            samples.iter().map(|s| s.duration.secs_f64()).collect(),
            Some(crate::SIM_DURATION_STEP_S),
        );
        let covered: usize = self.rounds.iter().map(Round::covered).sum();
        rep.put("coverage", ratio(covered as f64, n as f64, "coverage"));
        crate::put_rel_width(rep, samples.iter().map(|s| (s.low.bps(), s.high.bps())));
        let counts = MachineCounts::read(&self.tele, &Self::labels());
        let pkts = counts.probe_pkts(&SlopsConfig::default(), self.started());
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
        let all = || self.rounds.iter().flat_map(|r| r.samples());
        rep.check(
            "every estimate has 0 <= low <= high",
            all().all(|(_, s)| 0.0 <= s.low.bps() && s.low <= s.high),
        );
        rep.check(
            &format!("the engine sharded one queue per path ({PATHS})"),
            self.rounds.iter().all(|r| r.shards == PATHS),
        );
        rep.check(
            "every started measurement was harvested",
            self.rounds.iter().all(|r| r.harvested() == r.started),
        );
        rep.check(
            "the export wrote one sample line per harvested estimate",
            self.rounds
                .iter()
                .all(|r| r.export_lines as u64 == r.harvested()),
        );
        rep.check(
            "no link dropped a packet (probe bytes are exact)",
            self.rounds.iter().all(|r| r.link_drops == 0),
        );
        let counts = MachineCounts::read(&self.tele, &Self::labels());
        let cfg = SlopsConfig::default();
        let pkts = counts.probe_pkts(&cfg, self.started()) as i128;
        let bytes: i128 = self.rounds.iter().map(|r| r.probe_bytes).sum();
        rep.check(
            "probe bytes lie between min-size and MTU-size probe packets",
            pkts * i128::from(cfg.min_packet) <= bytes && bytes <= pkts * i128::from(cfg.mtu),
        );
        rep.check(
            "the registry saw one session per estimate",
            counts.sessions == self.harvested(),
        );
        let r0 = &self.rounds[0];
        let mut d = Digest::default();
        for s in r0.series.iter().flat_map(|s| s.samples()) {
            d.add(s.started.as_nanos());
            d.add(s.duration.as_nanos());
            d.add(s.low.bps().to_bits());
            d.add(s.high.bps().to_bits());
        }
        d.add(r0.eng.events_processed);
        d.add(r0.probe_bytes as u64);
        d.add(r0.covered() as u64);
        let digest = d.value();
        rep.note(format!(
            "rounds {} of {PATHS} paths in {:.2} s; estimates {}; events {}",
            self.rounds.len(),
            self.wall_s,
            self.harvested(),
            self.rounds
                .iter()
                .map(|r| r.eng.events_processed)
                .sum::<u64>()
        ));
        rep.note(format!(
            "digest of round 0 (estimates {}, events {}, probe bytes {}, coverage {}/{}): {digest:#018x}",
            r0.harvested(),
            r0.eng.events_processed,
            r0.probe_bytes,
            r0.covered(),
            r0.harvested()
        ));
        crate::check_recorded_digest(rep, "fleet_disjoint", seed, digest);
    }

    /// Per-layer metrics of a traced run.
    pub fn per_layer(&self, seed: u64, untraced_cpu_ms: Result<f64, String>, rep: &mut Report) {
        let n = self.harvested();
        rep.attempted = self.started();
        rep.failed = rep.attempted.saturating_sub(n);
        self.checks(seed, rep);
        let sum = |f: fn(&Round) -> u64| self.rounds.iter().map(f).sum::<u64>() as f64;
        let events = sum(|r| r.eng.events_processed);
        let heap_ops = sum(|r| r.eng.heap_ops());
        let front = sum(|r| r.eng.front_hits);
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
            ratio(sum(|r| r.eng.heap_cmp_weight), events, "cmp weight"),
        );
        rep.put(
            "netsim.front_hit_share",
            ratio(front, front + heap_ops, "front hits"),
        );
        let max = |f: fn(&Round) -> usize| self.rounds.iter().map(f).max().unwrap_or(0) as f64;
        rep.put("netsim.heap_max_depth", Ok(max(|r| r.eng.heap_max_depth)));
        rep.put("netsim.pool_peak", Ok(max(|r| r.eng.pool_live_max)));
        rep.put("netsim.shards", Ok(max(|r| r.shards)));
        rep.put(
            "netsim.link_drops_per_estimate",
            per_estimate(sum(|r| r.link_drops), n, "drops"),
        );
        let counts = MachineCounts::read(&self.tele, &Self::labels());
        let probe_pkts = counts.probe_pkts(&SlopsConfig::default(), self.started());
        rep.put(
            "traffic.xt_pkts_per_estimate",
            per_estimate(
                sum(|r| r.link_tx_pkts) - probe_pkts as f64,
                n,
                "cross packets",
            ),
        );
        let mut totals = Totals::default();
        for r in &self.rounds {
            totals.add(&r.log);
        }
        let builds: Vec<f64> = self.rounds.iter().map(|r| r.setup_s * 1e3).collect();
        rep.put("simprobe.build_ms", stats::median(&builds));
        rep.put("simprobe.transport_ms_per_estimate", Ok(0.0));
        let bytes: i128 = self.rounds.iter().map(|r| r.probe_bytes).sum();
        rep.put(
            "simprobe.probe_kb_per_estimate",
            per_estimate(bytes as f64 / 1e3, n, "probe bytes"),
        );
        rep.put("slops.machine_self_ms_per_estimate", Ok(0.0));
        crate::put_machine_counts(rep, &counts, n);
        rep.put("slops.runner_busy_share", Ok(0.0));
        rep.put(
            "monitord.run_ms_per_estimate",
            per_estimate(self.run_s * 1e3, n, "run time"),
        );
        let (mut overruns, mut backlog) = (0, 0);
        for r in &self.rounds {
            let (o, b) = schedule_view(&r.series);
            overruns += o;
            backlog = backlog.max(b);
        }
        rep.put("monitord.sched_overruns", Ok(overruns as f64));
        rep.put("monitord.sched_backlog_max", Ok(backlog as f64));
        rep.put(
            "monitord.store_us_per_sample",
            per_estimate(
                totals.name_ns("monitord.store") as f64 / 1e3,
                n,
                "store time",
            ),
        );
        rep.put(
            "monitord.export_us_per_sample",
            per_estimate(
                totals.name_ns("monitord.export") as f64 / 1e3,
                n,
                "export time",
            ),
        );
        // The fleet runs on the main thread: all of its CPU is the driver's.
        rep.put(
            "monitord.driver_cpu_ms_per_estimate",
            per_estimate(self.cpu_s * 1e3, n, "driver cpu"),
        );
        rep.put("monitord.eventloop_wakeups_per_probe_pkt", Ok(0.0));
        crate::put_absent(rep, &["sockets"]);
        rep.put("telemetry.render_us", Ok(self.render_us));
        crate::put_overhead(rep, self.cpu_ms_per_estimate(), untraced_cpu_ms);
        crate::put_layers(rep, &totals, self.cpu_s, &[]);
    }
}
