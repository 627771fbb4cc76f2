//! What the kernel says about this process: CPU per process and per
//! thread, and peak memory. Everything is read from `/proc/self`, so the
//! benchmark needs no `unsafe` and no FFI.

use std::fs;
use std::io;

/// `/proc` reports process CPU in clock ticks of `USER_HZ`, which is 100
/// on every Linux ABI.
const USER_HZ: f64 = 100.0;

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cannot parse {what}"))
}

/// User + system CPU seconds of the whole process, including threads
/// that already exited.
pub fn process_cpu_s() -> io::Result<f64> {
    let stat = fs::read_to_string("/proc/self/stat")?;
    // The command name may hold spaces; the fields start after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| bad("/proc/self/stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| bad("/proc/self/stat utime/stime"))
    };
    // Fields 14 (utime) and 15 (stime) of stat(5); `rest` starts at 3.
    Ok(tick(11)? + tick(12)?)
}

/// Nanoseconds thread `tid` of this process has spent on a CPU
/// (`schedstat`, nanosecond resolution).
pub fn thread_cpu_ns(tid: u32) -> io::Result<u64> {
    schedstat_ns(&format!("/proc/self/task/{tid}/schedstat"))
}

/// Nanoseconds the calling thread has spent on a CPU.
pub fn this_thread_cpu_ns() -> io::Result<u64> {
    schedstat_ns("/proc/thread-self/schedstat")
}

fn schedstat_ns(path: &str) -> io::Result<u64> {
    let s = fs::read_to_string(path)?;
    s.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| bad("schedstat"))
}

/// The ids of this process's live threads, ascending.
pub fn threads() -> io::Result<Vec<u32>> {
    let mut out = Vec::new();
    for entry in fs::read_dir("/proc/self/task")? {
        if let Some(tid) = entry?.file_name().to_str().and_then(|s| s.parse().ok()) {
            out.push(tid);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// The main thread's id (equal to the process id on Linux).
pub fn main_thread() -> u32 {
    std::process::id()
}

/// Peak resident set size of the process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| bad("VmHWM"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let cpu = process_cpu_s().unwrap();
        assert!(cpu >= 0.0);
        let tids = threads().unwrap();
        assert!(tids.contains(&main_thread()));
        assert!(thread_cpu_ns(main_thread()).is_ok());
        assert!(this_thread_cpu_ns().is_ok());
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn a_new_thread_shows_up_and_burns_its_own_cpu() {
        let before = threads().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::spawn(move || {
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = x.wrapping_add(i ^ (x >> 3));
            }
            std::hint::black_box(x);
            // `/proc/thread-self` links to `<pid>/task/<tid>`.
            let link = std::fs::read_link("/proc/thread-self").unwrap();
            let tid: u32 = link.file_name().unwrap().to_str().unwrap().parse().unwrap();
            tx.send((tid, this_thread_cpu_ns().unwrap())).unwrap();
            done_rx.recv().unwrap();
        });
        let (tid, own) = rx.recv().unwrap();
        assert!(!before.contains(&tid));
        assert!(threads().unwrap().contains(&tid));
        assert!(own > 0 && thread_cpu_ns(tid).unwrap() >= own);
        done_tx.send(()).unwrap();
        h.join().unwrap();
    }
}
