//! `wire_async` and `wire_thread`: the `monitord` fleet over real UDP/TCP
//! sockets against one in-process `EventedReceiver`, on the loopback
//! interface only. The two workloads differ only in the sender stack:
//! the one-thread event-loop driver or the blocking `SocketTransport`
//! workers.

use crate::counts::MachineCounts;
use crate::report::Report;
use crate::spans::{SpanLog, Totals};
use crate::stats::{self, per_estimate, ratio};
use crate::sys;
use monitord::{
    export, FleetEvent, FleetTelemetry, PathSeries, ScheduleConfig, SeriesConfig, ShutdownFlag,
    SocketPathSpec,
};
use pathload_net::{EventedReceiver, EventedReceiverHandle};
use slops::series::RangeSample;
use slops::SlopsConfig;
use std::net::SocketAddr;
use std::time::Instant;
use units::{Rate, TimeNs};

/// Which sender stack drives the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// `run_socket_fleet_async_with_telemetry`: one event-loop thread.
    Async,
    /// `run_socket_fleet_with_telemetry`: blocking workers.
    Thread,
}

/// Monitored paths, all against the one receiver.
const PATHS: usize = 2;
/// Concurrency cap per driver, as `monitord --loopback` sets it: the
/// event loop measures both paths on its one thread; the blocking driver
/// measures one at a time, so its spinning sender and the receiver stay
/// within the host's two CPUs.
fn concurrency(driver: Driver) -> usize {
    match driver {
        Driver::Async => PATHS,
        Driver::Thread => 1,
    }
}
/// Receiver set-ups measured before the run, for `setup_s`.
const SETUP_REPS: usize = 21;
/// The last start is this long before the time budget ends, so the
/// measurement it starts lands inside it.
const TAIL_ROOM_S: f64 = 1.4;
const RATE_CAP_MBPS: f64 = 40.0;

/// Probe settings of `monitord --loopback`.
fn probe_cfg() -> SlopsConfig {
    let mut cfg = SlopsConfig::default();
    cfg.stream_len = 30;
    cfg.fleet_len = 4;
    cfg.min_period = TimeNs::from_millis(1);
    cfg.resolution = Rate::from_mbps(8.0);
    cfg.grey_resolution = Rate::from_mbps(16.0);
    cfg.max_fleets = 6;
    cfg
}

/// The fastest rate the sender can probe: MTU-sized packets every
/// `min_period`, capped by the pacing cap. Loopback has far more
/// avail-bw than that, so a range that covers the truth reaches it.
fn probe_ceiling(cfg: &SlopsConfig) -> f64 {
    (f64::from(cfg.mtu) * 8.0 / cfg.min_period.secs_f64()).min(RATE_CAP_MBPS * 1e6)
}

fn specs(ctrl_addr: SocketAddr) -> Vec<SocketPathSpec> {
    (0..PATHS)
        .map(|i| SocketPathSpec {
            label: format!("lo{i}"),
            ctrl_addr,
            cfg: probe_cfg(),
            rate_cap: Some(Rate::from_mbps(RATE_CAP_MBPS)),
        })
        .collect()
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}

/// Bind and spawn the receiver; returns the handle and its thread id,
/// identified as the one thread that appears across `spawn`.
fn spawn_receiver(
    tele: Option<&FleetTelemetry>,
) -> Result<(EventedReceiverHandle, Option<u32>), String> {
    let rx =
        EventedReceiver::bind("127.0.0.1:0".parse().map_err(|e| format!("{e}"))?).map_err(io)?;
    if let Some(t) = tele {
        rx.register_metrics(t.registry());
    }
    let before = sys::threads().map_err(io)?;
    let handle = rx.spawn();
    let after = sys::threads().map_err(io)?;
    let new: Vec<u32> = after.into_iter().filter(|t| !before.contains(t)).collect();
    Ok((handle, (new.len() == 1).then(|| new[0])))
}

/// One wire run: set-ups, then the monitored fleet.
pub struct WireRun {
    driver: Driver,
    setup_s: Vec<f64>,
    setup_wall_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    series: Vec<PathSeries>,
    started: u64,
    wall_s: f64,
    cpu_s: f64,
    receiver_cpu_s: Option<f64>,
    main_cpu_s: f64,
    backlog_max: i64,
    tele: FleetTelemetry,
    log: SpanLog,
    render_us: f64,
}

/// Set the receiver up [`SETUP_REPS`] times, then monitor [`PATHS`]
/// loopback paths for about `seconds`.
pub fn run(driver: Driver, seed: u64, seconds: f64, trace: bool) -> Result<WireRun, String> {
    let epoch = Instant::now();
    let mut log = SpanLog::new(trace, epoch);
    let root = log.open("bench.wire", None);
    let (mut setup_s, mut setup_wall_ms, mut connect_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (t0, cpu0) = (Instant::now(), sys::this_thread_cpu_ns().map_err(io)?);
        let (handle, rx_tid) = log.time("sockets.receiver_spawn", root, || spawn_receiver(None))?;
        let t1 = Instant::now();
        let paths = log
            .time("sockets.connect", root, || {
                monitord::connect_fleet(specs(handle.ctrl_addr()))
            })
            .map_err(io)?;
        connect_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        setup_wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        // Set-up CPU: this thread's plus the new receiver thread's, so a
        // host that is slow to wake threads does not read as set-up work.
        let rx = rx_tid.ok_or("the receiver thread was not identified")?;
        let cpu =
            sys::this_thread_cpu_ns().map_err(io)? - cpu0 + sys::thread_cpu_ns(rx).map_err(io)?;
        setup_s.push(cpu as f64 / 1e9);
        drop(paths);
        handle.stop().map_err(io)?;
    }

    let tele = FleetTelemetry::new();
    let (handle, rx_tid) = spawn_receiver(Some(&tele))?;
    let sched = ScheduleConfig {
        period: TimeNs::from_millis(100),
        jitter: TimeNs::from_millis(50),
        max_concurrent: concurrency(driver),
        seed,
    };
    let horizon = TimeNs::from_secs_f64((seconds - TAIL_ROOM_S).max(0.5));
    let series_cfg = SeriesConfig::default();
    let stop = ShutdownFlag::new();
    let mut backlog_max = 0i64;
    let backlog = tele.registry().gauge("scheduler_backlog", &[]);
    let observer = |_: FleetEvent<'_>| backlog_max = backlog_max.max(backlog.get());
    let main = sys::main_thread();
    let rx_cpu = || {
        rx_tid
            .map(|t| sys::thread_cpu_ns(t).map(|ns| ns as f64 / 1e9))
            .transpose()
    };
    let (cpu0, rx0, main0) = (
        sys::process_cpu_s().map_err(io)?,
        rx_cpu().map_err(io)?,
        sys::thread_cpu_ns(main).map_err(io)?,
    );
    let t0 = Instant::now();
    let paths = specs(handle.ctrl_addr());
    let series = log
        .time("monitord.run_fleet", root, || match driver {
            Driver::Async => monitord::run_socket_fleet_async_with_telemetry(
                paths,
                &sched,
                &series_cfg,
                horizon,
                &stop,
                Some(&tele),
                observer,
            ),
            Driver::Thread => monitord::run_socket_fleet_with_telemetry(
                paths,
                &sched,
                &series_cfg,
                horizon,
                1,
                &stop,
                Some(&tele),
                observer,
            ),
        })
        .map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    // Read the receiver thread before it exits.
    let (cpu1, rx1, main1) = (
        sys::process_cpu_s().map_err(io)?,
        rx_cpu().map_err(io)?,
        sys::thread_cpu_ns(main).map_err(io)?,
    );
    handle.stop().map_err(io)?;
    let started = tele.registry().gauge("scheduler_started", &[]).get().max(0) as u64;
    log.time("monitord.store", root, || {
        for s in &series {
            std::hint::black_box((s.windows(), s.changes(), s.stats()));
        }
    });
    let mut out = Vec::new();
    log.time("monitord.export", root, || {
        export::write_fleet_jsonl(&mut out, &series)
    })
    .map_err(io)?;
    log.close(root);
    let render_us = crate::render_us(&tele);
    Ok(WireRun {
        driver,
        setup_s,
        setup_wall_ms,
        connect_ms,
        series,
        started,
        wall_s,
        cpu_s: cpu1 - cpu0,
        receiver_cpu_s: rx0.zip(rx1).map(|(a, b)| b - a),
        main_cpu_s: (main1 - main0) as f64 / 1e9,
        backlog_max,
        tele,
        log,
        render_us,
    })
}

impl WireRun {
    /// The run's span log.
    pub fn logs(&self) -> Vec<&SpanLog> {
        vec![&self.log]
    }

    fn samples(&self) -> Vec<&RangeSample> {
        self.series.iter().flat_map(|s| s.samples()).collect()
    }

    fn harvested(&self) -> u64 {
        self.series.iter().map(|s| s.len() as u64).sum()
    }

    fn labels() -> Vec<String> {
        (0..PATHS).map(|i| format!("lo{i}")).collect()
    }

    fn probe_pkts(&self) -> u64 {
        MachineCounts::read(&self.tele, &Self::labels()).probe_pkts(&probe_cfg(), self.started)
    }

    /// Process CPU per finished estimate, milliseconds.
    pub fn cpu_ms_per_estimate(&self) -> Result<f64, String> {
        per_estimate(self.cpu_s * 1e3, self.harvested(), "cpu per estimate")
    }

    /// CPU of the fleet driver: the main thread for the event loop; for
    /// the blocking driver, its workers too (everything but the receiver).
    fn driver_cpu_s(&self) -> Result<f64, String> {
        match (self.driver, self.receiver_cpu_s) {
            (Driver::Async, _) => Ok(self.main_cpu_s),
            (Driver::Thread, Some(rx)) => Ok(self.cpu_s - rx),
            (Driver::Thread, None) => Err("the receiver thread was not identified".into()),
        }
    }

    /// Checks and end-to-end metrics of an untraced run.
    pub fn end_to_end(&self, rep: &mut Report) {
        let samples = self.samples();
        let n = self.harvested();
        rep.attempted = self.started;
        rep.failed = self.started.saturating_sub(n);
        self.checks(rep);
        rep.put("setup_s", stats::median(&self.setup_s));
        rep.put("cpu_ms_per_estimate", self.cpu_ms_per_estimate());
        rep.put(
            "wall_ms_per_estimate",
            per_estimate(self.wall_s * 1e3, n, "wall per estimate"),
        );
        crate::put_durations(
            rep,
            samples.iter().map(|s| s.duration.secs_f64()).collect(),
            None,
        );
        let ceiling = probe_ceiling(&probe_cfg());
        let covered = samples
            .iter()
            .filter(|s| s.high.bps() >= 0.99 * ceiling)
            .count();
        rep.put("coverage", ratio(covered as f64, n as f64, "coverage"));
        crate::put_rel_width(rep, samples.iter().map(|s| (s.low.bps(), s.high.bps())));
        rep.put(
            "probe_pkts_per_estimate",
            per_estimate(self.probe_pkts() as f64, n, "probe packets"),
        );
        rep.put(
            "harvested_share",
            ratio(n as f64, self.started as f64, "harvested share"),
        );
        rep.put("peak_rss_mb", sys::peak_rss_mb().map_err(io));
    }

    fn checks(&self, rep: &mut Report) {
        let samples = self.samples();
        rep.check(
            "every estimate has 0 <= low <= high",
            samples
                .iter()
                .all(|s| 0.0 <= s.low.bps() && s.low <= s.high),
        );
        for s in &self.series {
            rep.check(
                &format!("path {} landed a sample", s.label()),
                !s.is_empty(),
            );
        }
        rep.check(
            "the receiver thread was identified across spawn",
            self.receiver_cpu_s.is_some(),
        );
        let paced: u64 = self.tele.pacing_quantiles().iter().map(|p| p.3).sum();
        let counted = MachineCounts::read(&self.tele, &Self::labels()).streams
            * u64::from(probe_cfg().stream_len);
        rep.check(
            &format!("stream packets paced ({paced}) equal the registry's count ({counted})"),
            paced == counted,
        );
        rep.note(format!(
            "{:?} driver: {} estimates of {} started in {:.2} s; errors {}",
            self.driver,
            self.harvested(),
            self.started,
            self.wall_s,
            self.series.iter().map(PathSeries::errors).sum::<u64>(),
        ));
        rep.note(format!(
            "set-up over {SETUP_REPS} tries: cpu median {:.3} ms, wall median {:.3} ms",
            stats::median(&self.setup_s).unwrap_or(f64::NAN) * 1e3,
            stats::median(&self.setup_wall_ms).unwrap_or(f64::NAN)
        ));
        rep.note(format!(
            "cpu: process {:.3} s, receiver thread {:.3} s, driver {:.3} s",
            self.cpu_s,
            self.receiver_cpu_s.unwrap_or(f64::NAN),
            self.driver_cpu_s().unwrap_or(f64::NAN)
        ));
    }

    /// Per-layer metrics of a traced run.
    pub fn per_layer(&self, untraced_cpu_ms: Result<f64, String>, rep: &mut Report) {
        let n = self.harvested();
        rep.attempted = self.started;
        rep.failed = self.started.saturating_sub(n);
        self.checks(rep);
        crate::put_absent(rep, &["netsim", "traffic", "simprobe"]);
        rep.put("slops.machine_self_ms_per_estimate", Ok(0.0));
        let counts = MachineCounts::read(&self.tele, &Self::labels());
        crate::put_machine_counts(rep, &counts, n);
        rep.put("slops.runner_busy_share", Ok(0.0));
        let mut totals = Totals::default();
        totals.add(&self.log);
        rep.put(
            "monitord.run_ms_per_estimate",
            per_estimate(
                totals.name_ns("monitord.run_fleet") as f64 / 1e6,
                n,
                "run time",
            ),
        );
        let reg = self.tele.registry();
        rep.put(
            "monitord.sched_overruns",
            Ok(reg.gauge("scheduler_overruns", &[]).get() as f64),
        );
        rep.put("monitord.sched_backlog_max", Ok(self.backlog_max as f64));
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
        let driver_cpu = self.driver_cpu_s();
        rep.put(
            "monitord.driver_cpu_ms_per_estimate",
            driver_cpu
                .clone()
                .and_then(|c| per_estimate(c * 1e3, n, "driver cpu")),
        );
        let wakeups = reg.counter("eventloop_wakeups_total", &[]).get();
        rep.put(
            "monitord.eventloop_wakeups_per_probe_pkt",
            ratio(
                wakeups as f64,
                self.probe_pkts() as f64,
                "wakeups per packet",
            ),
        );
        let mut buckets = vec![0u64; 65];
        for (label, ..) in self.tele.pacing_quantiles() {
            let h = self.tele.pacing_histogram(&label);
            for (b, c) in buckets.iter_mut().zip(h.bucket_counts()) {
                *b += c;
            }
        }
        rep.put(
            "sockets.pacing_err_us_p50",
            stats::log2_quantile(&buckets, 0.5).map(|ns| ns / 1e3),
        );
        rep.put(
            "sockets.pacing_err_us_p99",
            stats::log2_quantile(&buckets, 0.99).map(|ns| ns / 1e3),
        );
        let rx_cpu = self
            .receiver_cpu_s
            .ok_or("the receiver thread was not identified");
        rep.put(
            "sockets.receiver_cpu_ms_per_estimate",
            rx_cpu
                .map_err(String::from)
                .and_then(|c| per_estimate(c * 1e3, n, "receiver cpu")),
        );
        let routed = reg.counter("receiver_demux_routed_total", &[]).get();
        let drops: u64 = ["unknown_token", "collector_full", "dedup"]
            .iter()
            .map(|r| {
                reg.counter("receiver_demux_drops_total", &[("reason", r)])
                    .get()
            })
            .sum();
        rep.put(
            "sockets.receiver_routed_share",
            ratio(routed as f64, (routed + drops) as f64, "routed share"),
        );
        rep.put("sockets.receiver_drops", Ok(drops as f64));
        rep.put("sockets.connect_ms", stats::median(&self.connect_ms));
        rep.put("telemetry.render_us", Ok(self.render_us));
        crate::put_overhead(rep, self.cpu_ms_per_estimate(), untraced_cpu_ms);
        // On the wire the layers are threads: the receiver thread is
        // `sockets`, the fleet driver `monitord` (its sender, pacing and
        // estimation machine run inside the one fleet call).
        let threads = [
            ("sockets", self.receiver_cpu_s.unwrap_or(0.0)),
            ("monitord", driver_cpu.unwrap_or(0.0)),
        ];
        crate::put_layers(rep, &totals, self.cpu_s, &threads);
    }
}
