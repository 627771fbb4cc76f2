//! Spans recorded by the benchmark around its calls into each layer:
//! name, start, end and parent, kept in memory and written out when the
//! run ends. A span's layer is its name up to the first `.`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`, e.g. `simprobe.send_stream`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
}

/// The spans of one unit of work (a grid cell, a fleet round, a wire
/// run). Disabled logs record nothing and cost one branch per call.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log timing against `epoch`; `on = false` disables it.
    pub fn new(on: bool, epoch: Instant) -> SpanLog {
        SpanLog {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`; `None` when the log is off.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`SpanLog::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            let now = self.now_ns();
            if let Some(s) = self.spans.get_mut(i) {
                s.end_ns = now;
            }
        }
    }

    /// Time `f` as a span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }
}

/// Duration of a span, nanoseconds.
fn dur(s: &Span) -> u64 {
    s.end_ns.saturating_sub(s.start_ns)
}

/// Self time per span: its duration minus the time its children cover.
/// Children of one span never overlap (they run on its thread in turn).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(c) = child.get_mut(p) {
                *c += dur(s);
            }
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| dur(s).saturating_sub(c))
        .collect()
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer(name: &str) -> &str {
    name.split_once('.').map_or(name, |(l, _)| l)
}

/// Self time summed per span name and per layer over many logs.
#[derive(Debug, Default)]
pub struct Totals {
    /// Nanoseconds of self time per layer.
    by_layer: BTreeMap<String, u64>,
    /// Total duration (not self time) per span name, nanoseconds.
    by_name: BTreeMap<&'static str, u64>,
}

impl Totals {
    /// Fold one log in.
    pub fn add(&mut self, log: &SpanLog) {
        for (s, own) in log.spans.iter().zip(self_times(&log.spans)) {
            *self.by_layer.entry(layer(s.name).to_string()).or_default() += own;
            *self.by_name.entry(s.name).or_default() += dur(s);
        }
    }

    /// Self time of `layer`, nanoseconds.
    pub fn layer_ns(&self, layer: &str) -> u64 {
        self.by_layer.get(layer).copied().unwrap_or(0)
    }

    /// Total duration of spans named `name`, nanoseconds.
    pub fn name_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).copied().unwrap_or(0)
    }
}

/// All spans of `logs` as tab-separated rows:
/// `log id parent name start_ns end_ns`.
pub fn to_tsv(logs: &[&SpanLog]) -> String {
    let mut out = String::from("log\tid\tparent\tname\tstart_ns\tend_ns\n");
    for (l, log) in logs.iter().enumerate() {
        for (i, s) in log.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{l}\t{i}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let spans = vec![
            span("bench.cell", 0, 100, None),
            span("slops.session", 10, 90, Some(0)),
            span("simprobe.send_stream", 20, 50, Some(1)),
            span("simprobe.idle", 60, 70, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 30, 10]);
        let log = SpanLog {
            on: true,
            epoch: Instant::now(),
            spans,
        };
        let mut t = Totals::default();
        t.add(&log);
        assert_eq!(t.layer_ns("slops"), 40);
        assert_eq!(t.layer_ns("simprobe"), 40);
        assert_eq!(t.layer_ns("bench"), 20);
        assert_eq!(t.name_ns("slops.session"), 80);
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now());
        let id = log.open("x.y", None);
        assert!(id.is_none());
        log.close(id);
        assert_eq!(log.time("x.z", None, || 7), 7);
        assert!(log.spans.is_empty());
    }

    #[test]
    fn tsv_names_parents() {
        let mut log = SpanLog::new(true, Instant::now());
        let root = log.open("bench.run", None);
        log.time("sockets.connect", root, || ());
        log.close(root);
        let tsv = to_tsv(&[&log]);
        assert!(tsv.contains("\t1\t0\tsockets.connect\t"), "{tsv}");
        assert!(tsv.contains("\t0\t-\tbench.run\t"), "{tsv}");
    }
}
