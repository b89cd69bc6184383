//! The system under test: the dataset generated by `maprat generate` and
//! the `maprat serve` process booted over it.

use crate::client::Conn;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a boot may take before the run fails.
const BOOT_TIMEOUT: Duration = Duration::from_secs(120);

/// Where the binary is and where runs keep their files.
pub struct Env {
    pub maprat: PathBuf,
    pub work: PathBuf,
}

impl Env {
    /// Reads `LOADBENCH_MAPRAT` / `LOADBENCH_WORK` (set by `run.sh`), with
    /// the default cargo layout as fallback.
    pub fn discover() -> Result<Env, String> {
        let var = |name: &str, default: &str| {
            PathBuf::from(std::env::var(name).unwrap_or_else(|_| default.into()))
        };
        let env = Env {
            maprat: var("LOADBENCH_MAPRAT", "target/release/maprat"),
            work: var("LOADBENCH_WORK", "target/loadbench-work"),
        };
        if !env.maprat.is_file() {
            return Err(format!(
                "no maprat binary at {} (build it first, or use run.sh)",
                env.maprat.display()
            ));
        }
        std::fs::create_dir_all(&env.work)
            .map_err(|e| format!("cannot create {}: {e}", env.work.display()))?;
        Ok(env)
    }

    /// The full-scale dataset of `seed`, generated on first use.
    pub fn dataset(&self, seed: u64) -> Result<PathBuf, String> {
        let dir = self.work.join(format!("data-full-{seed}"));
        if dir.join("ratings.dat").is_file() {
            return Ok(dir);
        }
        let tmp = self.fresh(&format!("data-full-{seed}.tmp-{}", std::process::id()))?;
        let status = Command::new(&self.maprat)
            .args([
                "generate",
                "--scale",
                "full",
                "--seed",
                &seed.to_string(),
                "--out",
            ])
            .arg(&tmp)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run maprat generate: {e}"))?;
        if !status.success() {
            return Err(format!("maprat generate failed: {status}"));
        }
        std::fs::rename(&tmp, &dir).map_err(|e| format!("cannot publish dataset: {e}"))?;
        Ok(dir)
    }

    /// An empty directory under the work directory.
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// A running `maprat serve`. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    /// Held open so the server's own stdout writes never fail.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `maprat serve --data DIR` (with `MAPRAT_WAL_DIR` when `wal`
    /// is given) and waits for the first 200 on `/`. Returns the server
    /// and the seconds from spawn to that answer.
    pub fn boot(env: &Env, data: &Path, wal: Option<&Path>) -> Result<(Server, f64), String> {
        let start = Instant::now();
        let mut cmd = Command::new(&env.maprat);
        cmd.args(["serve", "--port", "0", "--data"]).arg(data);
        cmd.env_remove("MAPRAT_WAL_DIR");
        if let Some(dir) = wal {
            cmd.env("MAPRAT_WAL_DIR", dir);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn maprat serve: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let port = read_port(&mut server._stdout)?;
        server.addr.set_port(port);
        let mut conn = Conn::new(server.addr);
        loop {
            if matches!(conn.send("GET", "/", "", 0), Ok(r) if r.status == 200) {
                return Ok((server, start.elapsed().as_secs_f64()));
            }
            if start.elapsed() > BOOT_TIMEOUT {
                return Err("maprat serve never answered 200 on /".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Reads the `listening on http://127.0.0.1:PORT/` line.
fn read_port(stdout: &mut impl BufRead) -> Result<u16, String> {
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("maprat serve exited before listening".into());
        }
        if let Some(rest) = line.split("http://127.0.0.1:").nth(1) {
            return rest
                .trim_end()
                .trim_end_matches('/')
                .parse()
                .map_err(|_| format!("cannot parse the port in {line:?}"));
        }
    }
}

/// Total size of the files in `dir` (the WAL), in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
