//! The program under test as child processes: `kgq store init` and
//! `kgq serve`, started with every `KGQ_*` variable cleared so the
//! program runs with its defaults.

use kgq_serve::Client;
use std::ffi::OsString;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a boot may take before the run gives up.
const BOOT_TIMEOUT: Duration = Duration::from_secs(120);

fn command(kgq: &Path) -> Command {
    let mut c = Command::new(kgq);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("KGQ_") {
            c.env_remove(key);
        }
    }
    c
}

/// `kgq store init DIR --nt FILE`, run to completion.
pub fn store_init(kgq: &Path, dir: &Path, nt: &Path, log: &Path) -> Result<(), String> {
    let status = command(kgq)
        .arg("store")
        .arg("init")
        .arg(dir)
        .arg("--nt")
        .arg(nt)
        .stdout(Stdio::null())
        .stderr(log_file(log)?)
        .status()
        .map_err(|e| format!("kgq store init: {e}"))?;
    if !status.success() {
        return Err(format!("kgq store init exited with {status}"));
    }
    Ok(())
}

fn log_file(log: &Path) -> Result<std::fs::File, String> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(log)
        .map_err(|e| format!("{}: {e}", log.display()))
}

/// A running `kgq serve`.
pub struct Server {
    child: Child,
    pub addr: String,
    stdout: Option<JoinHandle<()>>,
    /// Requests this benchmark has sent to this process (for the check
    /// against its `STATS`).
    pub sent: u64,
}

/// The arguments of `kgq serve` for one workload.
pub struct ServeArgs {
    pub kgq: PathBuf,
    pub args: Vec<OsString>,
    pub log: PathBuf,
}

impl Server {
    /// Spawns `kgq serve`, reads its `listening on ADDR` line and sends
    /// `PING` until one succeeds.
    pub fn boot(spec: &ServeArgs) -> Result<Server, String> {
        let mut child = command(&spec.kgq)
            .arg("serve")
            .args(&spec.args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file(&spec.log)?)
            .spawn()
            .map_err(|e| format!("kgq serve: {e}"))?;
        let out = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the address, then drains stdout until the process exits.
        let stdout = std::thread::spawn(move || {
            let mut sent = false;
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    if !sent {
                        let _ = tx.send(addr.trim().to_owned());
                        sent = true;
                    }
                }
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
            stdout: Some(stdout),
            sent: 0,
        };
        server.addr = rx
            .recv_timeout(BOOT_TIMEOUT)
            .map_err(|_| "kgq serve never printed its address".to_owned())?;
        let deadline = Instant::now() + BOOT_TIMEOUT;
        loop {
            if let Ok(mut c) = Client::connect(&server.addr) {
                server.sent += 1;
                if c.ping().unwrap_or(false) {
                    return Ok(server);
                }
            }
            if Instant::now() > deadline {
                return Err("kgq serve never answered PING".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// `STATS` over a fresh connection; counts the request.
    pub fn stats(&mut self) -> Result<String, String> {
        let mut c = Client::connect(&self.addr).map_err(|e| e.to_string())?;
        self.sent += 1;
        c.stats().map_err(|e| e.to_string())
    }

    /// Clean shutdown: `SHUTDOWN`, then wait for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr).and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                self.join_stdout();
                return match (asked, status.success()) {
                    (Ok(_), true) => Ok(()),
                    _ => Err(format!("kgq serve exited with {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("kgq serve did not exit after SHUTDOWN".into())
    }

    /// SIGKILL, as a crash would.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_stdout();
    }

    fn join_stdout(&mut self) {
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.stdout.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            self.join_stdout();
        }
    }
}
