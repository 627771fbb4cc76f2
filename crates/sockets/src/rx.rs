//! The receiver's sans-IO session core.
//!
//! [`RxSession`] is everything a pathload receiver *decides* about one
//! sender session, and nothing it does: the control protocol (`Hello`,
//! announce → `Ready`, `Echo`, `Bye`), announce validation, the
//! collection of one stream or train (per-index dedup, loss and reorder
//! tolerance), its silence and deadline stops, the report, and the
//! rate-limited drop warning. It reads no clock and touches no socket:
//! control frames come in with the driver's `now_ns`, probe packets with
//! their arrival stamp, and the next check deadline goes out as a value.
//! It is the receiver-side counterpart of `slops::SessionMachine`.
//!
//! Two drivers pump it — the threaded [`Receiver`](crate::Receiver) and
//! the evented `EventedReceiver` — so both end collections identically.
//! [`RecvCounters`] is the one set of route/drop counters both register,
//! so their metric families cannot drift apart; only this module bumps
//! them.

// Datapath module: a panicking branch here takes the whole fleet down,
// so `unwrap`/`expect` are denied outright (errors must travel as values).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::proto::{CtrlMsg, ProbeKind, ProbePacket, SampleWire, DENY_AT_CAPACITY, PROTO_VERSION};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use telemetry::Counter;

/// How often an active collection is checked for its silence and deadline
/// stops (and how long the threaded demux blocks per read, which bounds
/// how fast it notices shutdown).
pub(crate) const POLL_TIMEOUT: Duration = Duration::from_nanos(POLL_NS);
const POLL_NS: u64 = 50_000_000;

/// Upper bound on the `count` a single announce may name. Collection
/// allocates per-stream state proportional to `count` (the seen-index
/// set, the sample vector), so without a cap one malicious
/// `StreamAnnounce { count: u32::MAX, .. }` frame would make the receiver
/// allocate gigabytes. Far above any real configuration (default stream
/// length is 100 packets); an announce beyond it is a protocol error that
/// closes the offending session — other sessions are unaffected.
pub const MAX_ANNOUNCE_COUNT: u32 = 1 << 16;

/// A stream whose nominal duration has passed is considered over after
/// this much silence (covers a lost or reordered final packet without
/// waiting out the full deadline).
const STREAM_SILENCE_NS: u64 = 200_000_000;

/// A back-to-back train is considered over after this much silence.
const TRAIN_SILENCE_NS: u64 = 50_000_000;

/// A stream's hard deadline is its nominal duration plus this much,
/// counted from the announce: 2 s to start plus 1 s of grace.
const STREAM_SLACK_NS: u64 = 3_000_000_000;

/// A train's hard deadline, counted from the announce.
const TRAIN_BUDGET_NS: u64 = 5_000_000_000;

/// A session whose collections have dropped at least this many datagrams
/// (duplicates, malformed indices) earns a stderr warning — silent loss of
/// this magnitude usually means a broken sender or a duplicating path.
const DROP_WARN_THRESHOLD: u64 = 32;

/// Minimum spacing between drop warnings across all sessions, so a flood
/// of duplicates cannot turn the log into its own flood.
const DROP_WARN_INTERVAL_NS: u64 = 5_000_000_000;

/// Route/drop accounting for one receiver, shared by its demux and every
/// session core, plus the receiver-wide drop-warning limiter. Dropping a
/// datagram is often *by design* here (stale tokens, duplicated
/// datagrams, bounded collector channels); these counters make the
/// by-design drops visible instead of silent. Clones share the same
/// handles.
#[derive(Clone, Debug, Default)]
pub(crate) struct RecvCounters {
    /// Datagrams routed to a live session.
    routed: Counter,
    /// Datagrams whose token no live session owns (stale, never issued).
    drop_unknown_token: Counter,
    /// Datagrams dropped at a full collector channel (flood protection;
    /// reads as loss). Only the threaded receiver has such a channel.
    drop_collector_full: Counter,
    /// Stream/train packets discarded by a collection: duplicated
    /// datagram or out-of-range index.
    drop_dedup: Counter,
    /// Collections ended by the silence window instead of a complete
    /// arrival set (the missing tail is treated as lost).
    silence_stops: Counter,
    /// Control connections refused with `Deny` at the session cap.
    denied: Counter,
    /// Receiver-clock time of the last drop warning (rate limiting).
    last_drop_warn_ns: Arc<AtomicU64>,
}

/// Where a driver's demux sent one decoded probe datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// Handed to the owning live session.
    Routed,
    /// No live session owns the datagram's token.
    UnknownToken,
    /// The owning session's collector channel was full.
    CollectorFull,
}

impl RecvCounters {
    /// Register every family under its canonical name (both receivers go
    /// through here, so the families can never drift apart).
    pub(crate) fn register(&self, reg: &telemetry::Registry) {
        reg.register_counter("receiver_demux_routed_total", &[], self.routed.clone());
        for (reason, counter) in [
            ("unknown_token", &self.drop_unknown_token),
            ("collector_full", &self.drop_collector_full),
            ("dedup", &self.drop_dedup),
        ] {
            reg.register_counter(
                "receiver_demux_drops_total",
                &[("reason", reason)],
                counter.clone(),
            );
        }
        reg.register_counter(
            "receiver_collect_silence_stops_total",
            &[],
            self.silence_stops.clone(),
        );
        reg.register_counter("receiver_sessions_denied_total", &[], self.denied.clone());
    }

    /// Count one demux decision.
    pub(crate) fn count_route(&self, route: Route) {
        match route {
            Route::Routed => &self.routed,
            Route::UnknownToken => &self.drop_unknown_token,
            Route::CollectorFull => &self.drop_collector_full,
        }
        .inc();
    }

    /// Admission at the session cap (`max` 0 = unlimited): when `live`
    /// sessions already fill it, the versioned `Deny` to answer the new
    /// connection with (counted); otherwise `None`, and the connection
    /// becomes a session.
    pub(crate) fn deny_at_cap(&self, live: usize, max: usize) -> Option<CtrlMsg> {
        if max == 0 || live < max {
            return None;
        }
        self.denied.inc();
        Some(CtrlMsg::Deny {
            version: PROTO_VERSION,
            code: DENY_AT_CAPACITY,
        })
    }

    /// Warn (rate-limited) once a session's collections have discarded a
    /// suspicious number of datagrams. The threshold keeps the occasional
    /// duplicated datagram quiet; the interval keeps a duplicate *flood*
    /// from flooding stderr too.
    fn warn_drops(&self, token: u64, session_drops: u64, now_ns: u64) {
        if session_drops < DROP_WARN_THRESHOLD {
            return;
        }
        let last = self.last_drop_warn_ns.load(Ordering::Relaxed);
        if now_ns.saturating_sub(last) < DROP_WARN_INTERVAL_NS {
            return;
        }
        if self
            .last_drop_warn_ns
            .compare_exchange(last, now_ns, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            eprintln!(
                "receiver: session {token:#018x} dropped {session_drops} \
                 duplicate/malformed probe datagrams ({} across all sessions)",
                self.drop_dedup.get()
            );
        }
    }
}

/// What the driver does after feeding the core a control frame.
#[derive(Debug, PartialEq)]
pub(crate) enum Reply {
    /// Write this frame (an `Echo`).
    Send(CtrlMsg),
    /// Write `ready`: a collection is now active, and its first check is
    /// due at `check_at` (receiver clock).
    Collect {
        /// The `Ready` frame acknowledging the announce.
        ready: CtrlMsg,
        /// When to call [`RxSession::on_check`] first.
        check_at: u64,
    },
    /// The sender said `Bye`: flush what is queued and close the session.
    Close,
}

/// What a check of the active collection decided.
#[derive(Debug, PartialEq)]
pub(crate) enum Check {
    /// The collection ended (complete, silent, or past its deadline):
    /// write this report.
    Report(CtrlMsg),
    /// Still collecting: check again at this receiver-clock instant.
    Next(u64),
    /// No collection is active (a stale check).
    Idle,
}

/// One stream or train being collected.
#[derive(Debug)]
struct Collection {
    kind: ProbeKind,
    id: u32,
    /// Per-index arrival marks; its length is the announced count.
    seen: Vec<bool>,
    /// Stream samples in arrival order (always empty for a train).
    samples: Vec<SampleWire>,
    /// Distinct packets accepted so far.
    received: u32,
    /// Arrival of the first accepted packet.
    first_ns: u64,
    /// Latest arrival of an accepted packet.
    last_ns: u64,
    /// Latest arrival of any packet of this collection, dropped or not.
    last_activity: u64,
    /// Nominal duration `count · period` (0 for a train): silence cannot
    /// end a collection before this much has passed since `first_ns`.
    nominal_ns: u64,
    /// Silence window that ends the collection once `nominal_ns` passed.
    silence_ns: u64,
    /// Hard deadline: the collection ends here whatever arrived.
    deadline: u64,
}

impl Collection {
    fn complete(&self) -> bool {
        self.received as usize >= self.seen.len()
    }

    /// The silence stop: something was accepted, the nominal duration has
    /// passed since then, and nothing of this collection arrived for a
    /// silence window.
    fn silent(&self, now_ns: u64) -> bool {
        self.received > 0
            && now_ns >= self.first_ns.saturating_add(self.nominal_ns)
            && now_ns.saturating_sub(self.last_activity) >= self.silence_ns
    }

    fn into_report(self) -> CtrlMsg {
        match self.kind {
            ProbeKind::Stream => CtrlMsg::StreamReport {
                id: self.id,
                samples: self.samples,
            },
            ProbeKind::Train => CtrlMsg::TrainReport {
                id: self.id,
                received: self.received,
                first_ns: self.first_ns,
                last_ns: self.last_ns,
            },
        }
    }
}

/// The sans-IO receiver side of one sender session (see the module docs).
#[derive(Debug)]
pub(crate) struct RxSession {
    token: u64,
    counters: RecvCounters,
    collection: Option<Collection>,
    /// Datagrams this session's collections dropped (duplicates,
    /// malformed indices), across collections: the total counters
    /// aggregate every session, this names the offender in the warning.
    drops: u64,
}

fn protocol_error(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl RxSession {
    /// A fresh session under the minted `token`, counting into `counters`.
    pub(crate) fn new(token: u64, counters: &RecvCounters) -> RxSession {
        RxSession {
            token,
            counters: counters.clone(),
            collection: None,
            drops: 0,
        }
    }

    /// The session token this core was minted with.
    pub(crate) fn token(&self) -> u64 {
        self.token
    }

    /// The `Hello` that opens the session, advertising the receiver's
    /// shared probe port.
    pub(crate) fn hello(&self, udp_port: u16) -> CtrlMsg {
        CtrlMsg::Hello {
            version: PROTO_VERSION,
            udp_port,
            session: self.token,
        }
    }

    /// Feed one control frame read at `now_ns`. An `Err` is a protocol
    /// error that closes this session only: an unexpected frame, an
    /// announce while a collection is active, or an announce whose count
    /// or duration exceeds what the receiver collects.
    pub(crate) fn on_ctrl(&mut self, msg: CtrlMsg, now_ns: u64) -> io::Result<Reply> {
        match msg {
            CtrlMsg::StreamAnnounce {
                id,
                count,
                period_ns,
                size: _,
            } => self.announce(ProbeKind::Stream, id, count, period_ns, now_ns),
            CtrlMsg::TrainAnnounce { id, count, size: _ } => {
                self.announce(ProbeKind::Train, id, count, 0, now_ns)
            }
            CtrlMsg::Echo { token } => Ok(Reply::Send(CtrlMsg::Echo { token })),
            CtrlMsg::Bye => Ok(Reply::Close),
            other => Err(protocol_error(format!(
                "unexpected control message {other:?}"
            ))),
        }
    }

    fn announce(
        &mut self,
        kind: ProbeKind,
        id: u32,
        count: u32,
        period_ns: u64,
        now_ns: u64,
    ) -> io::Result<Reply> {
        if self.collection.is_some() {
            return Err(protocol_error(
                "announce while a collection is active".into(),
            ));
        }
        if count > MAX_ANNOUNCE_COUNT {
            return Err(protocol_error(format!(
                "announced count {count} exceeds the {MAX_ANNOUNCE_COUNT} cap"
            )));
        }
        let (slack_ns, silence_ns) = match kind {
            ProbeKind::Stream => (STREAM_SLACK_NS, STREAM_SILENCE_NS),
            ProbeKind::Train => (TRAIN_BUDGET_NS, TRAIN_SILENCE_NS),
        };
        let nominal_ns = u64::from(count).checked_mul(period_ns);
        let deadline = nominal_ns
            .and_then(|n| n.checked_add(slack_ns))
            .and_then(|budget| now_ns.checked_add(budget));
        let (Some(nominal_ns), Some(deadline)) = (nominal_ns, deadline) else {
            return Err(protocol_error(format!(
                "announced duration {count} x {period_ns} ns exceeds the receiver clock's cap"
            )));
        };
        let c = Collection {
            kind,
            id,
            seen: vec![false; count as usize],
            samples: Vec::with_capacity(if kind == ProbeKind::Stream {
                count as usize
            } else {
                0
            }),
            received: 0,
            first_ns: 0,
            last_ns: 0,
            last_activity: now_ns,
            nominal_ns,
            silence_ns,
            deadline,
        };
        // An empty announce is complete at once: check it right away.
        let check_at = if c.complete() {
            now_ns
        } else {
            now_ns.saturating_add(POLL_NS)
        };
        self.collection = Some(c);
        Ok(Reply::Collect {
            ready: CtrlMsg::Ready { id },
            check_at,
        })
    }

    /// Feed one probe packet stamped `recv_ns` at the socket read. Returns
    /// the report when this packet completes the collection. Packets
    /// between collections, or of another kind or id (leftovers of an
    /// earlier stream or train), are ignored; a duplicated or out-of-range
    /// index is dropped and counted.
    pub(crate) fn on_probe(&mut self, p: &ProbePacket, recv_ns: u64) -> Option<CtrlMsg> {
        let c = self.collection.as_mut()?;
        if p.kind != c.kind || p.id != c.id {
            return None;
        }
        c.last_activity = recv_ns;
        match c.seen.get_mut(p.idx as usize) {
            // In range and fresh: mark and record below.
            Some(mark @ false) => *mark = true,
            // Malformed index or duplicated datagram.
            _ => {
                self.drops += 1;
                self.counters.drop_dedup.inc();
                self.counters.warn_drops(self.token, self.drops, recv_ns);
                return None;
            }
        }
        if c.received == 0 {
            c.first_ns = recv_ns;
        }
        c.last_ns = c.last_ns.max(recv_ns);
        c.received += 1;
        if c.kind == ProbeKind::Stream {
            c.samples.push(SampleWire {
                idx: p.idx,
                send_ns: p.send_ns,
                recv_ns,
            });
        }
        if !c.complete() {
            return None;
        }
        self.finish()
    }

    /// Check the active collection at `now_ns`: the report once it is
    /// complete, past its hard deadline, or silent (the missing tail reads
    /// as lost); otherwise the next check deadline.
    pub(crate) fn on_check(&mut self, now_ns: u64) -> Check {
        let Some(c) = &self.collection else {
            return Check::Idle;
        };
        if !c.complete() && now_ns < c.deadline {
            if !c.silent(now_ns) {
                return Check::Next(now_ns.saturating_add(POLL_NS));
            }
            self.counters.silence_stops.inc();
        }
        self.finish().map_or(Check::Idle, Check::Report)
    }

    /// End the active collection now and return its report (`None` when
    /// no collection is active).
    pub(crate) fn finish(&mut self) -> Option<CtrlMsg> {
        self.collection.take().map(Collection::into_report)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use proptest::prelude::*;

    const MS: u64 = 1_000_000;
    const TOKEN: u64 = 0xfeed;

    fn session() -> (RxSession, RecvCounters) {
        let counters = RecvCounters::default();
        (RxSession::new(TOKEN, &counters), counters)
    }

    fn stream(id: u32, count: u32, period_ns: u64) -> CtrlMsg {
        CtrlMsg::StreamAnnounce {
            id,
            count,
            period_ns,
            size: 200,
        }
    }

    fn train(id: u32, count: u32) -> CtrlMsg {
        CtrlMsg::TrainAnnounce {
            id,
            count,
            size: 1500,
        }
    }

    fn probe(kind: ProbeKind, id: u32, idx: u32) -> ProbePacket {
        ProbePacket {
            session: TOKEN,
            kind,
            id,
            idx,
            send_ns: u64::from(idx) * MS,
        }
    }

    /// Announce at `now`; returns the first check deadline.
    fn announce(s: &mut RxSession, msg: CtrlMsg, now: u64) -> u64 {
        match s.on_ctrl(msg, now).unwrap() {
            Reply::Collect { ready, check_at } => {
                assert!(matches!(ready, CtrlMsg::Ready { .. }));
                check_at
            }
            other => panic!("expected a collection, got {other:?}"),
        }
    }

    /// Run checks from `from` on, feeding nothing, until the core reports;
    /// returns the report and the instant it was produced.
    fn check_until_report(s: &mut RxSession, mut at: u64) -> (CtrlMsg, u64) {
        for _ in 0..1000 {
            match s.on_check(at) {
                Check::Report(r) => return (r, at),
                Check::Next(t) => {
                    assert!(t > at, "check deadline must move forward");
                    at = t;
                }
                Check::Idle => panic!("collection vanished"),
            }
        }
        panic!("no report after 1000 checks");
    }

    fn sample_indices(report: &CtrlMsg) -> Vec<u32> {
        match report {
            CtrlMsg::StreamReport { samples, .. } => samples.iter().map(|s| s.idx).collect(),
            other => panic!("expected a stream report, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_and_out_of_range_indices_are_dropped_and_counted() {
        let (mut s, counters) = session();
        announce(&mut s, stream(1, 3, MS), 0);
        let p = |idx| probe(ProbeKind::Stream, 1, idx);
        assert_eq!(s.on_probe(&p(0), 10 * MS), None);
        assert_eq!(s.on_probe(&p(0), 11 * MS), None, "duplicate");
        assert_eq!(s.on_probe(&p(3), 12 * MS), None, "index == count");
        assert_eq!(s.on_probe(&p(u32::MAX), 13 * MS), None, "far out of range");
        assert_eq!(s.on_probe(&p(2), 14 * MS), None);
        let report = s
            .on_probe(&p(1), 15 * MS)
            .expect("third distinct index completes");
        assert_eq!(sample_indices(&report), vec![0, 2, 1]);
        assert_eq!(counters.drop_dedup.get(), 3);
        assert_eq!(s.drops, 3);
        assert_eq!(s.on_check(16 * MS), Check::Idle, "nothing left to check");
    }

    #[test]
    fn train_report_counts_distinct_arrivals() {
        let (mut s, counters) = session();
        announce(&mut s, train(4, 3), 0);
        let p = |idx| probe(ProbeKind::Train, 4, idx);
        assert_eq!(s.on_probe(&p(1), 5 * MS), None);
        assert_eq!(s.on_probe(&p(1), 6 * MS), None);
        assert_eq!(s.on_probe(&p(0), 7 * MS), None);
        let report = s.on_probe(&p(2), 8 * MS).unwrap();
        assert_eq!(
            report,
            CtrlMsg::TrainReport {
                id: 4,
                received: 3,
                first_ns: 5 * MS,
                last_ns: 8 * MS,
            }
        );
        assert_eq!(counters.drop_dedup.get(), 1);
    }

    #[test]
    fn leftovers_of_another_id_or_kind_are_ignored() {
        let (mut s, counters) = session();
        // Between collections every packet is ignored.
        assert_eq!(s.on_probe(&probe(ProbeKind::Stream, 1, 0), MS), None);
        announce(&mut s, stream(2, 2, MS), 2 * MS);
        for p in [
            probe(ProbeKind::Stream, 1, 0), // earlier stream
            probe(ProbeKind::Stream, 3, 0), // another id
            probe(ProbeKind::Train, 2, 0),  // same id, a train
        ] {
            assert_eq!(s.on_probe(&p, 3 * MS), None);
        }
        assert_eq!(
            counters.drop_dedup.get(),
            0,
            "leftovers are not dedup drops"
        );
        assert_eq!(s.on_probe(&probe(ProbeKind::Stream, 2, 0), 4 * MS), None);
        let report = s.on_probe(&probe(ProbeKind::Stream, 2, 1), 5 * MS).unwrap();
        assert_eq!(sample_indices(&report), vec![0, 1]);
    }

    #[test]
    fn stream_waits_out_its_nominal_duration_before_silence_stops_it() {
        let (mut s, counters) = session();
        // 10 packets at 100 ms: nominal 1 s from the first arrival.
        let check = announce(&mut s, stream(1, 10, 100 * MS), 0);
        assert_eq!(check, POLL_NS);
        s.on_probe(&probe(ProbeKind::Stream, 1, 0), 100 * MS);
        // 600 ms of silence, but the stream is nominally still running.
        assert!(matches!(s.on_check(700 * MS), Check::Next(_)));
        assert!(matches!(s.on_check(1_099 * MS), Check::Next(_)));
        assert_eq!(counters.silence_stops.get(), 0);
        // Past the nominal end (1.1 s) and silent for ≥ 200 ms: over.
        let (report, _) = check_until_report(&mut s, 1_100 * MS);
        assert_eq!(sample_indices(&report), vec![0]);
        assert_eq!(counters.silence_stops.get(), 1);
    }

    #[test]
    fn stream_activity_defers_the_silence_stop() {
        let (mut s, _) = session();
        announce(&mut s, stream(1, 3, MS), 0);
        s.on_probe(&probe(ProbeKind::Stream, 1, 0), 10 * MS);
        // A duplicate still counts as activity on the collection.
        s.on_probe(&probe(ProbeKind::Stream, 1, 0), 300 * MS);
        assert!(matches!(s.on_check(400 * MS), Check::Next(_)));
        let (_, at) = check_until_report(&mut s, 400 * MS);
        assert!(at >= 500 * MS, "stopped {at} ns, before 200 ms of silence");
    }

    #[test]
    fn train_stops_after_its_silence_window() {
        let (mut s, counters) = session();
        announce(&mut s, train(7, 20), 0);
        // No arrival yet: silence alone does not stop a train.
        assert!(matches!(s.on_check(2_000 * MS), Check::Next(_)));
        s.on_probe(&probe(ProbeKind::Train, 7, 0), 2_000 * MS);
        s.on_probe(&probe(ProbeKind::Train, 7, 1), 2_001 * MS);
        assert!(matches!(s.on_check(2_050 * MS), Check::Next(_)));
        let (report, at) = check_until_report(&mut s, 2_051 * MS);
        assert_eq!(at, 2_051 * MS, "50 ms after the last arrival");
        assert_eq!(
            report,
            CtrlMsg::TrainReport {
                id: 7,
                received: 2,
                first_ns: 2_000 * MS,
                last_ns: 2_001 * MS,
            }
        );
        assert_eq!(counters.silence_stops.get(), 1);
    }

    #[test]
    fn collections_stop_at_their_hard_deadline() {
        // A stream nobody sends: 2 s + nominal 10 × 10 ms + 1 s.
        let (mut s, counters) = session();
        let start = 7 * MS;
        let first = announce(&mut s, stream(1, 10, 10 * MS), start);
        let (report, at) = check_until_report(&mut s, first);
        assert!(sample_indices(&report).is_empty());
        assert!(at >= start + 3_100 * MS && at < start + 3_100 * MS + POLL_NS);
        // A train whose packets keep trickling in past its 5 s budget.
        let first = announce(&mut s, train(2, 1000), 0);
        let mut at = first;
        let report = loop {
            s.on_probe(&probe(ProbeKind::Train, 2, (at / (50 * MS)) as u32), at);
            match s.on_check(at) {
                Check::Report(r) => break r,
                Check::Next(t) => at = t,
                Check::Idle => panic!("collection vanished"),
            }
        };
        assert_eq!(at, 5_000 * MS);
        assert!(matches!(report, CtrlMsg::TrainReport { id: 2, .. }));
        assert_eq!(
            counters.silence_stops.get(),
            0,
            "deadline stops are not silence stops"
        );
    }

    #[test]
    fn an_empty_announce_reports_at_its_first_check() {
        let (mut s, _) = session();
        let check = announce(&mut s, stream(1, 0, MS), 9 * MS);
        assert_eq!(check, 9 * MS);
        let (report, _) = check_until_report(&mut s, check);
        assert!(sample_indices(&report).is_empty());
    }

    #[test]
    fn announce_during_an_active_collection_is_an_error() {
        let (mut s, _) = session();
        announce(&mut s, stream(1, 5, MS), 0);
        let err = s.on_ctrl(train(2, 5), MS).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("active"), "{err}");
    }

    #[test]
    fn oversized_or_overflowing_announces_are_refused() {
        for msg in [
            stream(1, u32::MAX, MS),
            stream(1, MAX_ANNOUNCE_COUNT + 1, MS),
            stream(1, 2, u64::MAX),
            stream(1, 2, u64::MAX / 2 - 1), // the duration fits, the deadline does not
        ] {
            let (mut s, _) = session();
            let err = s.on_ctrl(msg, MS).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("cap"), "{err}");
        }
        // Near the end of the receiver clock even a sane train overflows.
        let (mut s, _) = session();
        assert!(s.on_ctrl(train(1, 10), u64::MAX - MS).is_err());
    }

    #[test]
    fn echo_bye_and_unexpected_frames() {
        let (mut s, _) = session();
        assert_eq!(
            s.on_ctrl(CtrlMsg::Echo { token: 9 }, 0).unwrap(),
            Reply::Send(CtrlMsg::Echo { token: 9 })
        );
        assert_eq!(s.on_ctrl(CtrlMsg::Bye, 0).unwrap(), Reply::Close);
        let err = s.on_ctrl(CtrlMsg::Ready { id: 1 }, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            s.hello(4242),
            CtrlMsg::Hello {
                version: PROTO_VERSION,
                udp_port: 4242,
                session: TOKEN,
            }
        );
    }

    #[test]
    fn admission_denies_at_the_cap_and_counts() {
        let counters = RecvCounters::default();
        assert_eq!(counters.deny_at_cap(1000, 0), None, "0 = unlimited");
        assert_eq!(counters.deny_at_cap(1, 2), None);
        assert_eq!(
            counters.deny_at_cap(2, 2),
            Some(CtrlMsg::Deny {
                version: PROTO_VERSION,
                code: DENY_AT_CAPACITY,
            })
        );
        assert_eq!(counters.denied.get(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary packet and time sequences never panic the core, and a
        /// report never holds a duplicate index or one at or past `count`.
        #[test]
        fn reports_hold_distinct_in_range_indices(
            count in 0u32..24,
            period_ns in 0u64..5_000_000,
            is_train in any::<bool>(),
            events in prop::collection::vec((any::<u8>(), 0u32..32, 0u64..300_000_000), 0..120),
        ) {
            let (mut s, _) = session();
            let kind = if is_train { ProbeKind::Train } else { ProbeKind::Stream };
            let msg = if is_train { train(3, count) } else { stream(3, count, period_ns) };
            let mut now = 0u64;
            let mut check_at = announce(&mut s, msg, now);
            let mut reports = Vec::new();
            for (sel, idx, gap) in events {
                now = now.saturating_add(gap);
                // Mostly this collection's packets; some leftovers.
                let id = if sel % 8 == 0 { 2 } else { 3 };
                let k = if sel % 16 == 1 { ProbeKind::Train } else { kind };
                let p = ProbePacket { session: TOKEN, kind: k, id, idx, send_ns: u64::from(sel) };
                reports.extend(s.on_probe(&p, now));
                if sel % 3 == 0 || now >= check_at {
                    match s.on_check(now) {
                        Check::Report(r) => reports.push(r),
                        Check::Next(t) => check_at = t,
                        Check::Idle => {}
                    }
                }
            }
            reports.extend(s.finish());
            prop_assert!(reports.len() <= 1, "one announce, {} reports", reports.len());
            for r in &reports {
                match r {
                    CtrlMsg::StreamReport { id, samples } => {
                        prop_assert_eq!(*id, 3);
                        let mut seen = std::collections::BTreeSet::new();
                        for smp in samples {
                            prop_assert!(smp.idx < count, "index {} >= count {}", smp.idx, count);
                            prop_assert!(seen.insert(smp.idx), "duplicate index {}", smp.idx);
                        }
                    }
                    CtrlMsg::TrainReport { id, received, first_ns, last_ns } => {
                        prop_assert_eq!(*id, 3);
                        prop_assert!(*received <= count);
                        prop_assert!(*received == 0 || first_ns <= last_ns);
                    }
                    other => prop_assert!(false, "not a report: {:?}", other),
                }
            }
        }
    }
}
