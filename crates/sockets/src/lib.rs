//! # pathload-net — SLoPS over real sockets
//!
//! A faithful implementation of the pathload tool's transport (§IV):
//! UDP periodic probe streams timestamped at both ends, with a TCP control
//! channel that announces streams, acknowledges them, and carries the
//! receiver's per-packet records back to the sender. The receiver is
//! **session-multiplexing**: one control port and one shared UDP probe
//! socket serve any number of concurrent senders, demuxed by the session
//! token minted at `Hello` and carried in every probe packet (wire
//! protocol v2). The sender side
//! implements [`slops::ProbeTransport`], so the *same* estimation code that
//! runs over the simulator runs over a real network: the `pathload_snd`
//! binary calls the blocking `slops::Session::run` driver, which executes
//! the sans-IO `slops::SessionMachine` command by command over this
//! transport.
//!
//! Layout:
//!
//! * [`proto`] — wire formats: UDP probe packets and framed control
//!   messages (hand-rolled, dependency-free encoding).
//! * [`clock`] — monotonic nanosecond clocks. Sender and receiver use
//!   *different epochs* on purpose: SLoPS needs only relative OWDs.
//! * [`pacing`] — absolute-deadline packet pacing (sleep-then-spin), the
//!   part of a measurement tool a general-purpose runtime cannot do; this
//!   is why the crate uses plain threads — or its own readiness loop —
//!   instead of an async executor.
//! * [`mux`] — the readiness event loop: an epoll [`mux::Poller`] plus a
//!   deadline [`mux::TimerQueue`] (pacing deadlines as timer entries),
//!   combined in [`mux::EventLoop`]. No executor dependency: epoll is
//!   called straight through the C library `std` already links.
//! * [`evented`] — [`EventedSession`], the non-blocking driver of the
//!   sans-IO machine over this transport: commands go out on
//!   writability/timer expiry, events come back on readability, so one
//!   thread can multiplex hundreds of concurrent sessions (the
//!   `monitord --driver async` fleet).
//! * [`batch`] — the kernel-fast datapath: `recvmmsg`/`sendmmsg`
//!   batching (one syscall, many datagrams) behind scalar fallbacks, and
//!   a `SO_REUSEADDR` listener bind so a restarted receiver reclaims its
//!   port through `TIME_WAIT`.
//! * `rx` (crate-private) — `RxSession`, the receiver's sans-IO session
//!   core and the receiver-side counterpart of `slops::SessionMachine`:
//!   control frames in with a timestamp, replies out; probe packets in
//!   with their arrival stamp, the report out once the collection ends
//!   (per-index dedup, silence and deadline stops); the next check
//!   deadline out as a value. Both receivers below are drivers of it.
//! * [`receiver`] — the threaded `pathload_rcv` side: a thread per
//!   session pumping its core, plus a demux thread that timestamps the
//!   shared probe socket's datagrams and routes them by session token.
//!   Portable.
//! * [`receiver_evented`] — [`EventedReceiver`]: every session's core on
//!   one [`mux::EventLoop`] thread, with non-blocking accept, batched
//!   probe reads, and check deadlines as timer entries. Thousands of
//!   sessions, one thread; Linux only.
//! * [`sender`] — the `pathload_snd` side: [`SocketTransport`].
//! * [`driver`] — [`SocketDriver`], the explicit command/event pump of the
//!   sans-IO `slops::SessionMachine` over this transport (the reference
//!   mapping a new transport driver should copy; see `docs/DRIVERS.md`).
//!
//! Binaries `pathload_snd` / `pathload_rcv` wrap these (see `src/bin`).
//!
//! Localhost quick start (two terminals):
//!
//! ```text
//! pathload_rcv 127.0.0.1:9100
//! pathload_snd 127.0.0.1:9100
//! ```

// `deny`, not `forbid`: the exceptions are the FFI blocks in `mux::sys`
// (epoll) and `batch::sys` (`recvmmsg`/`sendmmsg`/`SO_REUSEADDR`) wrapping
// syscalls std links but does not expose; each opts in explicitly with
// `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]

pub mod batch;
pub mod clock;
pub mod driver;
// The evented driver registers raw fds (`std::os::fd`), a Unix-only
// surface; the blocking driver stays fully portable.
#[cfg(unix)]
pub mod evented;
pub mod mux;
pub mod pacing;
pub mod proto;
pub mod receiver;
#[cfg(unix)]
pub mod receiver_evented;
mod rx;
pub mod sender;

pub use batch::UdpRecvBatch;
pub use driver::SocketDriver;
#[cfg(unix)]
pub use evented::{EventedSession, SessionTokens};
pub use receiver::{AcceptBackoff, Receiver};
#[cfg(unix)]
pub use receiver_evented::{EventedReceiver, EventedReceiverHandle};
pub use sender::SocketTransport;
