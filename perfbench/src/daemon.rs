//! The `zipline-serverd` child process: spawn, address discovery, CPU and
//! peak-memory readings from `/proc`, graceful shutdown and kill.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux's fixed `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`.
const TICKS_PER_SECOND: f64 = 100.0;

/// How long a graceful shutdown may take before the child is killed.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(20);

/// One running `zipline-serverd`.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stderr: BufReader<ChildStderr>,
    /// The loopback address it listens on.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral loopback port with `backend`,
    /// journaling under `durable` with `--sync data` when given, and waits
    /// for it to report its address.
    pub fn spawn(exe: &Path, backend: &str, durable: Option<&Path>) -> Result<Self, String> {
        let mut command = Command::new(exe);
        command.args(["--listen", "tcp://127.0.0.1:0", "--backend", backend]);
        if let Some(dir) = durable {
            command.arg("--durable").arg(dir).args(["--sync", "data"]);
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let stdin = child.stdin.take();
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = stderr
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().rsplit_once("tcp://"))
            .and_then(|(_, addr)| addr.parse().ok());
        let mut daemon = Self {
            child,
            stdin,
            stderr,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        match addr {
            Some(addr) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            None => {
                daemon.kill();
                Err(format!(
                    "zipline-serverd did not report an address: {line:?}"
                ))
            }
        }
    }

    /// Server user + system CPU so far, in milliseconds.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let rest = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(user), Some(system)) => Ok((user + system) as f64 * 1000.0 / TICKS_PER_SECOND),
            _ => Err(format!("unparsable {path}")),
        }
    }

    /// Peak resident set (`VmHWM`) so far, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib * 1024.0 / 1e6)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Closes standard input (the daemon's shutdown signal) and waits for a
    /// clean exit; a failed exit returns the daemon's final report.
    pub fn shutdown(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => {
                    let mut report = String::new();
                    drop(self.stderr.read_to_string(&mut report));
                    return Err(format!("zipline-serverd exited with {status}: {report}"));
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => {
                    self.kill();
                    return Err("zipline-serverd did not shut down in time".into());
                }
                Err(e) => return Err(format!("waiting for zipline-serverd: {e}")),
            }
        }
    }

    /// Kills the daemon and reaps it.
    pub fn kill(&mut self) {
        drop(self.stdin.take());
        drop(self.child.kill());
        drop(self.child.wait());
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}
