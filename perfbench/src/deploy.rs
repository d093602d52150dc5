//! The system under test: the release `delta-serverd` / `delta-routerd`
//! binaries as child processes, fed only the generated catalog file.

use crate::spec::{Topology, Workload};
use delta_server::{DeltaClient, NodeRole, StatsSnapshot};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any daemon may take to come up before the run fails.
const START_DEADLINE: Duration = Duration::from_secs(30);
/// Retry interval while a daemon is not listening yet: short, so the
/// first probe connects as soon as the listener is bound.
const POLL: Duration = Duration::from_micros(100);
/// How long a connected probe waits for its Hello to be answered before
/// a fresh probe is tried.
const PROBE_WAIT: Duration = Duration::from_secs(1);

/// Where the daemon binaries and the run's scratch files live.
pub struct Env {
    pub bin_dir: PathBuf,
    pub run_dir: PathBuf,
    /// Header-only trace file: the catalog, no events.
    pub catalog_file: PathBuf,
    pub policy_seed: u64,
}

/// A live deployment. Dropping it kills every process still running.
pub struct Deployment {
    children: Vec<Child>,
    /// The address clients talk to (the router in a cluster).
    pub front: SocketAddr,
    /// Spawn of the first process → first answered `Hello` at the front
    /// (and, with replicas, every backup bootstrapped).
    pub setup: Duration,
}

pub(crate) fn free_addr() -> Result<SocketAddr, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    l.local_addr().map_err(|e| format!("local addr: {e}"))
}

fn spawn(env: &Env, bin: &str, args: &[String], log: &str) -> Result<Child, String> {
    let log = std::fs::File::create(env.run_dir.join(log)).map_err(|e| format!("log: {e}"))?;
    Command::new(env.bin_dir.join(bin))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("spawn {bin}: {e}"))
}

/// Polls until a Hello at `addr` is answered: the probe connects as soon
/// as the listener is bound and waits for the daemon to answer it.
fn await_hello(addr: SocketAddr, role: NodeRole, children: &mut [Child]) -> Result<(), String> {
    let deadline = Instant::now() + START_DEADLINE;
    loop {
        match DeltaClient::connect(addr) {
            Ok(mut c) => {
                let reply = c.set_io_timeout(Some(PROBE_WAIT)).and_then(|_| c.hello(0));
                if let Ok(info) = reply {
                    return if info.role == role {
                        Ok(())
                    } else {
                        Err(format!(
                            "{addr} answered as {:?}, expected {role:?}",
                            info.role
                        ))
                    };
                }
            }
            // Not listening yet.
            Err(_) => std::thread::sleep(POLL),
        }
        for child in children.iter_mut() {
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("a daemon exited during start-up ({status})"));
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never answered Hello"));
        }
    }
}

/// Polls the router's merged telemetry until every backup is seeded.
pub(crate) fn await_bootstraps(addr: SocketAddr, want: u64) -> Result<(), String> {
    let deadline = Instant::now() + START_DEADLINE;
    let mut c = DeltaClient::connect(addr).map_err(|e| format!("router: {e}"))?;
    loop {
        let t = c.telemetry().map_err(|e| format!("telemetry: {e}"))?;
        if t.counter("replica.bootstraps") >= want {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("replica bootstrap never finished".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn common_args(w: &Workload, env: &Env, bind: SocketAddr) -> Vec<String> {
    [
        "--bind",
        &bind.to_string(),
        "--shards",
        &w.shards.to_string(),
        "--partitioner",
        &w.partitioner,
        "--cache-bytes",
        &w.cache_bytes.to_string(),
        "--policy",
        "vcover",
        "--seed",
        &env.policy_seed.to_string(),
        "--trace",
        &env.catalog_file.display().to_string(),
        "--no-sql",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

impl Deployment {
    /// Starts a fresh deployment of `w` and times its set-up.
    pub fn start(w: &Workload, env: &Env) -> Result<Deployment, String> {
        match w.topology {
            Topology::Standalone => {
                let addr = free_addr()?;
                let t0 = Instant::now();
                let mut children = vec![spawn(
                    env,
                    "delta-serverd",
                    &common_args(w, env, addr),
                    "serverd.log",
                )?];
                let mut d = Deployment {
                    children: Vec::new(),
                    front: addr,
                    setup: Duration::ZERO,
                };
                let ready = await_hello(addr, NodeRole::Standalone, &mut children);
                d.children = children;
                ready?;
                d.setup = t0.elapsed();
                Ok(d)
            }
            Topology::Cluster => {
                let addrs: Vec<SocketAddr> = (0..w.nodes)
                    .map(|_| free_addr())
                    .collect::<Result<_, _>>()?;
                let router = free_addr()?;
                let peers = addrs
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                let mut d = Deployment {
                    children: Vec::new(),
                    front: router,
                    setup: Duration::ZERO,
                };
                let t0 = Instant::now();
                for (node, addr) in addrs.iter().enumerate() {
                    let mut args = common_args(w, env, *addr);
                    args.extend(
                        [
                            "--node-id",
                            &node.to_string(),
                            "--nodes",
                            &w.nodes.to_string(),
                        ]
                        .map(String::from),
                    );
                    if w.replicas > 0 {
                        args.extend(
                            ["--replicas", &w.replicas.to_string(), "--peers", &peers]
                                .map(String::from),
                        );
                    }
                    d.children.push(spawn(
                        env,
                        "delta-serverd",
                        &args,
                        &format!("node{node}.log"),
                    )?);
                }
                for addr in &addrs {
                    await_hello(*addr, NodeRole::ClusterNode, &mut d.children)?;
                }
                let mut args: Vec<String> =
                    ["--bind", &router.to_string()].map(String::from).to_vec();
                for addr in &addrs {
                    args.extend(["--node".to_string(), addr.to_string()]);
                }
                args.extend(
                    [
                        "--trace",
                        &env.catalog_file.display().to_string(),
                        "--no-sql",
                    ]
                    .map(String::from),
                );
                d.children
                    .push(spawn(env, "delta-routerd", &args, "routerd.log")?);
                await_hello(router, NodeRole::Router, &mut d.children)?;
                if w.replicas > 0 {
                    await_bootstraps(router, w.shards as u64 * w.replicas as u64)?;
                }
                d.setup = t0.elapsed();
                Ok(d)
            }
        }
    }

    /// Sum of every daemon's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let mut kb = 0u64;
        for child in &self.children {
            kb += vm_hwm_kb(child.id())?;
        }
        Ok(kb as f64 / 1024.0)
    }

    pub fn stats(&self) -> Result<StatsSnapshot, String> {
        DeltaClient::connect(self.front)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("stats: {e}"))
    }

    /// Graceful stop (the router forwards `Shutdown` to its nodes); any
    /// process not gone within the deadline is killed.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = DeltaClient::connect(self.front).and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + Duration::from_secs(15);
        let mut clean = sent.is_ok();
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        clean &= status.success();
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        clean = false;
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        self.children.clear();
        if clean {
            Ok(())
        } else {
            Err("a daemon did not shut down cleanly".into())
        }
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn vm_hwm_kb(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM for pid {pid}"))
}

/// Writes the header-only trace file the daemons load their catalog from.
pub fn write_catalog(path: &Path, catalog: &delta_storage::ObjectCatalog) -> Result<(), String> {
    delta_workload::write_jsonl(
        path,
        catalog,
        &delta_workload::Trace::new(Vec::new()),
        "perfbench catalog",
    )
    .map_err(|e| format!("write {}: {e}", path.display()))
}
