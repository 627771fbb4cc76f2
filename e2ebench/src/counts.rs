//! Counts read back from the fleet telemetry registry after a run: the
//! machine-minted stream, fleet and session verdicts every driver relays.

use monitord::FleetTelemetry;
use slops::{FleetOutcome, InitialRate, SlopsConfig, StreamClass, Termination};

/// What the estimation machine did, summed over paths.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineCounts {
    /// Probe streams absorbed.
    pub streams: u64,
    /// Streams too damaged to classify.
    pub unusable: u64,
    /// Fleets closed with a verdict.
    pub fleets: u64,
    /// Fleets in the grey region.
    pub grey: u64,
    /// Fleets aborted for loss.
    pub lossy: u64,
    /// Sessions that produced an estimate.
    pub sessions: u64,
}

impl MachineCounts {
    /// Sum the registry's verdict counters over the paths `labels`.
    pub fn read(tele: &FleetTelemetry, labels: &[String]) -> MachineCounts {
        let reg = tele.registry();
        let get = |name: &str, label: &str, key: &str, value: &str| {
            reg.counter(name, &[("path", label), (key, value)]).get()
        };
        let mut c = MachineCounts::default();
        for l in labels {
            for class in StreamClass::ALL {
                let n = get("streams_total", l, "verdict", class.name());
                c.streams += n;
                if class == StreamClass::Unusable {
                    c.unusable += n;
                }
            }
            for outcome in FleetOutcome::ALL {
                let n = get("fleet_verdicts_total", l, "verdict", outcome.name());
                c.fleets += n;
                match outcome {
                    FleetOutcome::Grey => c.grey += n,
                    FleetOutcome::AbortedLossy => c.lossy += n,
                    _ => {}
                }
            }
            for t in Termination::ALL {
                c.sessions += get("sessions_done_total", l, "termination", t.name());
            }
        }
        c
    }

    /// Probe packets these counts imply under `cfg`: every stream is
    /// `stream_len` packets and every session opens with one train.
    pub fn probe_pkts(&self, cfg: &SlopsConfig, sessions_started: u64) -> u64 {
        let train = match cfg.initial {
            InitialRate::Train { len, .. } => u64::from(len),
            InitialRate::FixedMax(_) => 0,
        };
        self.streams * u64::from(cfg.stream_len) + sessions_started * train
    }
}
