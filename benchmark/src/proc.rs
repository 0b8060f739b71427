//! Process hygiene: one-CPU pinning, child processes that cannot
//! outlive the harness, `wait4` resource usage, free-port picking.
//!
//! Sizing for the benchmark found that a wake-up across two vCPUs of this
//! guest costs more than the whole DiTyCO message path (81–357 µs per
//! sequential RPC unpinned, 70–73 µs pinned), so the harness pins itself
//! to one CPU before it spawns anything; children inherit the mask.

use std::fs::File;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `cpu_set_t` of glibc: 1024 bits.
type CpuSet = [u64; 16];

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

fn affinity() -> Result<CpuSet, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc == 0 {
        Ok(set)
    } else {
        Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Pin the calling thread (and every thread or process it later starts)
/// to the first CPU of its current mask, and read the mask back to check.
/// Returns the CPU's index.
pub fn pin_to_one_cpu() -> Result<u32, String> {
    let current = affinity()?;
    let cpu = current
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i as u32 * 64 + w.trailing_zeros())
        .ok_or("empty affinity mask")?;
    let mut want: CpuSet = [0; 16];
    want[(cpu / 64) as usize] = 1 << (cpu % 64);
    // SAFETY: `want` is a live buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &want) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    if affinity()? != want {
        return Err(format!(
            "affinity mask did not read back as CPU {cpu} alone"
        ));
    }
    Ok(cpu)
}

/// CPUs the harness may run on (before pinning: the size of the box as
/// this process sees it).
pub fn cpus_allowed() -> usize {
    affinity()
        .map(|s| s.iter().map(|w| w.count_ones() as usize).sum())
        .unwrap_or(0)
}

/// What one finished child process cost.
#[derive(Debug, Clone, Default)]
pub struct Exit {
    /// Spawn → reaped.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub success: bool,
    pub stdout: String,
    pub stderr: String,
}

/// A running `ditico` child. Dropping it before [`Proc::finish`] kills
/// and reaps it, so no error path leaves a process behind.
pub struct Proc {
    child: Child,
    started: Instant,
    stdout_path: PathBuf,
    stderr_path: PathBuf,
    reaped: bool,
}

impl Proc {
    /// Start `program args…` in `dir`, stdout to `dir/<tag>.out` and
    /// stderr to `dir/<tag>.err`: files, so that a child can never block
    /// on a pipe nobody is reading.
    pub fn spawn(program: &Path, args: &[String], dir: &Path, tag: &str) -> Result<Proc, String> {
        let stdout_path = dir.join(format!("{tag}.out"));
        let stderr_path = dir.join(format!("{tag}.err"));
        let create = |p: &Path| File::create(p).map_err(|e| format!("{}: {e}", p.display()));
        let started = Instant::now();
        let child = Command::new(program)
            .args(args)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(create(&stdout_path)?)
            .stderr(create(&stderr_path)?)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
        Ok(Proc {
            child,
            started,
            stdout_path,
            stderr_path,
            reaped: false,
        })
    }

    /// Spin (yielding the CPU, which the server needs) until the kernel
    /// shows `port` listening on loopback. `ditico serve` prints its
    /// `listening on` line just before it binds, and a client that dials
    /// into that gap backs off for 50 ms — a bimodal makespan that is not
    /// DiTyCO's doing — so the kernel's table is waited on, not the line.
    pub fn wait_listening(&mut self, port: u16) -> Result<(), String> {
        let needle = format!(" 0100007F:{port:04X} 00000000:0000 0A ");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            let table = std::fs::read_to_string("/proc/net/tcp")
                .map_err(|e| format!("/proc/net/tcp: {e}"))?;
            if table.contains(&needle) {
                return Ok(());
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                self.reaped = true;
                return Err(format!(
                    "server ended ({status}) before it listened on 127.0.0.1:{port}:\n{}",
                    read_file(&self.stderr_path).unwrap_or_default()
                ));
            }
            std::thread::yield_now();
        }
        Err(format!("nothing listens on 127.0.0.1:{port} after 10 s"))
    }

    /// Reap the child with `wait4` and collect what it printed.
    pub fn finish(mut self) -> Result<Exit, String> {
        let mut status = 0i32;
        let mut usage = Rusage::default();
        // SAFETY: both out-pointers are live for the call; the pid is our
        // own unreaped child, so it cannot have been recycled.
        let rc = unsafe { wait4(self.child.id() as i32, &mut status, 0, &mut usage) };
        if rc < 0 {
            return Err(format!("wait4: {}", std::io::Error::last_os_error()));
        }
        self.reaped = true;
        let wall_s = self.started.elapsed().as_secs_f64();
        let secs = |t: Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Ok(Exit {
            wall_s,
            cpu_s: secs(usage.utime) + secs(usage.stime),
            peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
            // WIFEXITED && WEXITSTATUS == 0
            success: status == 0,
            stdout: read_file(&self.stdout_path)?,
            stderr: read_file(&self.stderr_path)?,
        })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn read_file(p: &Path) -> Result<String, String> {
    std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
}

/// A loopback port that was free a moment ago.
pub fn free_port() -> Result<u16, String> {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map(|a| a.port())
        .map_err(|e| format!("cannot pick a free port: {e}"))
}
