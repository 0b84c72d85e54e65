//! The server child process and the `/proc` counters read from outside
//! it: CPU time (`/proc/<pid>/stat`) and peak resident set
//! (`VmHWM` in `/proc/<pid>/status`).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at
/// 100 by the Linux user ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of `/proc/<target>/stat`, where `target`
/// is a pid, `self` or `thread-self`.
pub fn cpu_seconds(target: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(format!("/proc/{target}/stat")) else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis start at field 3 (state).
    let Some(rest) = text.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime are fields 14 and 15: indices 11 and 12 here.
    (tick(11) + tick(12)) / USER_HZ
}

/// Steal ticks (`/proc/stat`, all CPUs) so far: time the hypervisor
/// ran something else while one of this machine's vCPUs wanted to run.
pub fn steal_ticks() -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return 0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|rest| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds all threads of process `pid` have run so far (first
/// field of `/proc/<pid>/task/*/schedstat`).
pub fn run_ns(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// What happened around the measured work in each fixed-length slice
/// of a phase: the hypervisor's steal ticks and, when a pid is given,
/// the share of the slice that process spent running. Call [`tick`]
/// with the phase's elapsed time as it advances; crossing a slice
/// boundary charges what was seen since the last boundary to the slice
/// it left.
///
/// [`tick`]: SliceProbe::tick
#[derive(Debug)]
pub struct SliceProbe {
    steal: Vec<u64>,
    busy: Vec<f64>,
    pid: Option<u32>,
    current: usize,
    steal_mark: u64,
    run_mark: u64,
    at: Duration,
}

impl SliceProbe {
    /// Track `slices` slices of [`crate::client::SLICE`], and the
    /// busy share of `pid` if given.
    pub fn new(slices: usize, pid: Option<u32>) -> SliceProbe {
        SliceProbe {
            steal: vec![0; slices],
            busy: if pid.is_some() {
                vec![0.0; slices]
            } else {
                Vec::new()
            },
            pid,
            current: 0,
            steal_mark: steal_ticks(),
            run_mark: pid.map_or(0, run_ns),
            at: Duration::ZERO,
        }
    }

    /// Note the phase's elapsed time.
    pub fn tick(&mut self, elapsed: Duration) {
        let k = (elapsed.as_nanos() / crate::client::SLICE.as_nanos()) as usize;
        if k == self.current {
            return;
        }
        let steal = steal_ticks();
        if let Some(t) = self.steal.get_mut(self.current) {
            *t += steal - self.steal_mark;
        }
        self.steal_mark = steal;
        if let Some(pid) = self.pid {
            let run = run_ns(pid);
            let span = elapsed.saturating_sub(self.at).as_nanos().max(1) as f64;
            if let Some(b) = self.busy.get_mut(self.current) {
                *b = run.saturating_sub(self.run_mark) as f64 / span;
            }
            self.run_mark = run;
        }
        self.at = elapsed;
        self.current = k;
    }

    /// Steal ticks per slice, and busy shares per slice (empty without
    /// a pid).
    pub fn finish(self) -> (Vec<u64>, Vec<f64>) {
        (self.steal, self.busy)
    }
}

/// Peak resident set (`VmHWM`) of `/proc/<target>`, in MiB.
pub fn peak_rss_mb(target: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(format!("/proc/{target}/status")) else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU the load generator (and any in-process work) runs on.
pub const GENERATOR_CPU: usize = 0;
/// CPU the server process runs on.
pub const SERVER_CPU: usize = 1;

/// CPUs available to the benchmark, read once before any pinning
/// narrows the calling thread's mask.
pub fn host_cpus() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread to CPU `cpu` (threads and processes it
/// starts afterwards inherit the mask). Placement is fixed so that the
/// generator and the server never share a core by chance: left to the
/// scheduler, runs split into modes by where the threads land.
/// Does nothing on a host with fewer than two CPUs.
pub fn pin_current_thread(cpu: usize) -> Result<(), String> {
    if host_cpus() < 2 {
        return Ok(());
    }
    let mask: u64 = 1 << (cpu % host_cpus().min(64));
    // SAFETY: `mask` is a live 8-byte CPU set for the duration of the
    // call; the kernel only reads it. pid 0 means the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &raw const mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "pin to cpu {cpu}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// A running `txboost-server` child. Dropping it kills and reaps the
/// process if [`ServerProc::wait_exit`] was not reached.
pub struct ServerProc {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
    /// Address it listens on.
    pub addr: String,
    /// Its pid.
    pub pid: u32,
}

impl ServerProc {
    /// Start the server on an OS-chosen port with one event loop, plus
    /// `extra` flags, and wait for its `listening on` line.
    pub fn spawn(bin: &Path, extra: &[String]) -> Result<ServerProc, String> {
        // The child inherits the spawning thread's CPU mask.
        pin_current_thread(SERVER_CPU)?;
        let spawned = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--event-loops", "1"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn();
        pin_current_thread(GENERATOR_CPU)?;
        let mut child = spawned.map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line.trim().rsplit(' ').next().unwrap_or("").to_string();
        let mut proc = ServerProc {
            child: Some(child),
            stdout: Some(stdout),
            addr,
            pid,
        };
        if read.is_err() || !line.contains("listening on") {
            proc.kill();
            return Err(format!("server did not start: {line:?}"));
        }
        Ok(proc)
    }

    /// CPU seconds the server has used so far.
    pub fn cpu_seconds(&self) -> f64 {
        cpu_seconds(&self.pid.to_string())
    }

    /// The server's peak resident set, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.pid.to_string())
    }

    /// Wait for the process to exit (after a wire `Shutdown`) and check
    /// that it drained cleanly with status 0.
    pub fn wait_exit(mut self, limit: Duration) -> Result<(), String> {
        let mut child = self.child.take().expect("child present until exit");
        let deadline = Instant::now() + limit;
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    if let Some(out) = self.stdout.as_mut() {
                        let _ = std::io::Read::read_to_string(out, &mut rest);
                    }
                    if !status.success() {
                        return Err(format!("server exited with {status}"));
                    }
                    if !rest.contains("drained cleanly") {
                        return Err(format!("server did not drain cleanly: {rest:?}"));
                    }
                    return Ok(());
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not exit after shutdown".into());
                }
            }
        }
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir {
    /// Its path.
    pub path: PathBuf,
}

impl WorkDir {
    /// Create `.bench_work/<name>-<pid>` fresh.
    pub fn create(name: &str) -> Result<WorkDir, String> {
        let path = PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".bench_work");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_cpu_and_rss() {
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(50) {
            x = x.wrapping_add(std::hint::black_box(1));
        }
        assert!(x > 0);
        assert!(cpu_seconds("self") > 0.0);
        assert!(peak_rss_mb("self") > 0.0);
        assert_eq!(cpu_seconds("no-such-pid"), 0.0);
    }
}
