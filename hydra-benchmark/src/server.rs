//! The `hydra-serve` child process: spawn on ephemeral ports, read the
//! bound addresses from its stdout, sample its memory, and make sure it is
//! gone — on success, on error and on panic — before the benchmark exits.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pids of every live child, so the last-resort watchdog can kill them
/// before it exits the process (a `Drop` guard does not run on `exit`).
static LIVE_CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Kills every child still registered.  Only the watchdog calls this, just
/// before `std::process::exit`; everything else relies on [`ServerProcess`]'s
/// `Drop`.
pub fn kill_all_children() {
    let pids = LIVE_CHILDREN
        .lock()
        .map(|pids| pids.clone())
        .unwrap_or_default();
    for pid in pids {
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
}

/// How long a freshly spawned server may take to print its listen lines.
/// Recovery of a long version chain happens before the first line, so this
/// is also the ceiling on `recovery_s`.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(60);

/// Locates the `hydra-serve` binary: `HYDRA_SERVE_BIN` if set, else next to
/// the running benchmark executable (both land in `<target>/release/`).
pub fn locate_server_binary() -> Result<PathBuf, String> {
    if let Some(path) = std::env::var_os("HYDRA_SERVE_BIN") {
        let path = PathBuf::from(path);
        return if path.is_file() {
            Ok(path)
        } else {
            Err(format!("HYDRA_SERVE_BIN={} is not a file", path.display()))
        };
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut dir = exe.parent().map(Path::to_path_buf);
    // Test binaries live one level down, in `<target>/release/deps/`.
    for _ in 0..2 {
        let Some(d) = dir else { break };
        let candidate = d.join("hydra-serve");
        if candidate.is_file() {
            return Ok(candidate);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    Err(format!(
        "hydra-serve not found next to {} (build it with `cargo build --release -p hydra \
         --bin hydra-serve`, or set HYDRA_SERVE_BIN)",
        exe.display()
    ))
}

/// What to pass to `hydra-serve` besides the ephemeral listen addresses and
/// `--workers 2`.
#[derive(Debug, Clone, Default)]
pub struct ServerFlags {
    /// `--pg-addr 127.0.0.1:0`.
    pub pg: bool,
    /// `--wal-dir DIR --checkpoint-every N`.
    pub wal: Option<(PathBuf, usize)>,
}

/// A running `hydra-serve`.  Dropping it kills the child and reaps it, so a
/// failed check or a panic anywhere in the harness cannot leak a server.
#[derive(Debug)]
pub struct ServerProcess {
    child: Child,
    /// Frame-protocol address.
    pub frame_addr: SocketAddr,
    /// PostgreSQL-protocol address, when `--pg-addr` was passed.
    pub pg_addr: Option<SocketAddr>,
    /// Highest `VmHWM` seen (read again at kill/shutdown).
    peak_rss_kb: u64,
    /// Drains the child's stdout; ends when the child closes it.
    stdout_reader: Option<JoinHandle<()>>,
}

impl ServerProcess {
    /// Spawns the server and waits until every requested listener is bound.
    pub fn spawn(binary: &Path, flags: &ServerFlags) -> Result<ServerProcess, String> {
        let started = Instant::now();
        let mut command = Command::new(binary);
        command
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if flags.pg {
            command.args(["--pg-addr", "127.0.0.1:0"]);
        }
        if let Some((dir, every)) = &flags.wal {
            command.arg("--wal-dir").arg(dir);
            command.args(["--checkpoint-every", &every.to_string()]);
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");

        // The reader thread ends when the child closes stdout (it exits or
        // is killed), so it never outlives the guard by more than a read.
        let (tx, rx) = mpsc::channel::<String>();
        LIVE_CHILDREN
            .lock()
            .expect("child registry is never poisoned: no code panics holding it")
            .push(child.id());
        let stdout_reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    // Keep draining so the child never blocks on a full pipe.
                    continue;
                }
            }
        });

        let mut stdout_reader = Some(stdout_reader);
        let mut frame_addr = None;
        let mut pg_addr = None;
        let wanted = |f: &Option<SocketAddr>, p: &Option<SocketAddr>| {
            f.is_some() && (p.is_some() || !flags.pg)
        };
        let mut server = loop {
            let left = STARTUP_TIMEOUT.saturating_sub(started.elapsed());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(addr) = line.strip_prefix("hydra-serve listening on ") {
                        frame_addr = addr.trim().parse().ok();
                    } else if let Some(addr) = line.strip_prefix("hydra-serve pg listening on ") {
                        pg_addr = addr.trim().parse().ok();
                    }
                    if wanted(&frame_addr, &pg_addr) {
                        break ServerProcess {
                            child,
                            frame_addr: frame_addr.expect("checked"),
                            pg_addr,
                            peak_rss_kb: 0,
                            stdout_reader: stdout_reader.take(),
                        };
                    }
                }
                Err(_) => {
                    reap(&mut child, stdout_reader.take());
                    return Err(format!(
                        "hydra-serve exited or did not report its listen addresses within \
                         {STARTUP_TIMEOUT:?}"
                    ));
                }
            }
        };
        server.sample_rss();
        Ok(server)
    }

    /// Re-reads `VmHWM` from `/proc/<pid>/status` and returns the peak so far
    /// in MiB.  Linux only; elsewhere the peak stays 0 and the metric check
    /// fails loudly rather than reporting a made-up number.
    pub fn sample_rss(&mut self) -> f64 {
        if let Ok(status) = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())) {
            if let Some(kb) = parse_vm_hwm_kb(&status) {
                self.peak_rss_kb = self.peak_rss_kb.max(kb);
            }
        }
        self.peak_rss_kb as f64 / 1024.0
    }

    /// Asks the server to shut down with a `Shutdown` frame and waits for it
    /// to exit by itself; a server that does not is killed by `Drop`.
    /// Returns the peak RSS in MiB and whether the exit was clean.
    pub fn shutdown(mut self) -> (f64, bool) {
        let rss = self.sample_rss();
        let asked = crate::wire::FrameConn::connect(self.frame_addr).and_then(|mut conn| {
            let frame =
                hydra_service::protocol::encode_frame(&hydra_service::protocol::Request::Shutdown)
                    .map_err(|e| e.to_string())?;
            conn.call(&frame)
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut clean = false;
        while asked.is_ok() && Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    clean = status.success();
                    break;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => break,
            }
        }
        (rss, clean)
    }

    /// SIGKILLs the server (the crash of the durability test) and reaps it.
    /// Returns the peak RSS in MiB sampled just before the kill.
    pub fn kill(mut self) -> f64 {
        self.sample_rss()
        // `Drop` kills and reaps.
    }
}

/// Kills `child` (a no-op error if it already exited), reaps it, joins its
/// stdout reader and drops it from the watchdog's list.
fn reap(child: &mut Child, reader: Option<JoinHandle<()>>) {
    let _ = child.kill();
    let _ = child.wait();
    if let Some(reader) = reader {
        let _ = reader.join();
    }
    if let Ok(mut pids) = LIVE_CHILDREN.lock() {
        pids.retain(|&pid| pid != child.id());
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        reap(&mut self.child, self.stdout_reader.take());
    }
}

/// Extracts `VmHWM` (kB) from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Total size in bytes of the regular files under `dir` (non-recursive is
/// enough for a WAL directory, but nested files are counted too).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status =
            "Name:\thydra-serve\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }
}
