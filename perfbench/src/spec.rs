//! The benchmark's recorded inputs (`perfbench/workloads.json`): the
//! catalog, and per workload its deployment, cache budget, traffic mix,
//! frame shape, offered open-loop rate and fixed trace length.

use serde_json::Value;
use std::path::Path;

/// How the system under test is deployed for one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One `delta-serverd` process.
    Standalone,
    /// `nodes` `delta-serverd` processes behind one `delta-routerd`.
    Cluster,
}

/// One workload's inputs, exactly as recorded in `workloads.json`.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: String,
    pub topology: Topology,
    pub nodes: usize,
    pub shards: usize,
    pub partitioner: String,
    pub replicas: u16,
    pub cache_fraction: f64,
    /// `cache_fraction` of the catalog's bytes.
    pub cache_bytes: u64,
    pub query_share: f64,
    pub trace_events: usize,
    pub closed_events: usize,
    pub closed_batch: usize,
    pub closed_window: usize,
    pub open_rate_eps: f64,
}

impl Workload {
    /// Shrinks the trace for the smoke test, keeping every other input.
    pub fn tiny(mut self) -> Workload {
        self.trace_events = 6_000;
        self.closed_events = 4_000;
        self
    }
}

/// The whole input file.
#[derive(Clone, Debug)]
pub struct Spec {
    pub catalog_objects: usize,
    pub catalog_bytes: u64,
    pub policy_seed: u64,
    pub calibration_events: usize,
    pub workloads: Vec<Workload>,
}

fn field<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, String> {
    v.get(key)
        .ok_or_else(|| format!("{ctx}: missing field `{key}`"))
}

fn uint(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
    field(v, key, ctx)?
        .as_u64()
        .ok_or_else(|| format!("{ctx}: `{key}` must be a whole number"))
}

fn float(v: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    field(v, key, ctx)?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: `{key}` must be a number"))
}

fn string(v: &Value, key: &str, ctx: &str) -> Result<String, String> {
    field(v, key, ctx)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{ctx}: `{key}` must be a string"))
}

impl Spec {
    /// Reads and validates `path`.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let body = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let root =
            serde_json::from_str_value(&body).map_err(|e| format!("{}: {e}", path.display()))?;
        let catalog = field(&root, "catalog", "spec")?;
        let calibration = field(&root, "calibration", "spec")?;
        let mut workloads = Vec::new();
        let Value::Object(members) = field(&root, "workloads", "spec")? else {
            return Err("spec: `workloads` must be an object".into());
        };
        let catalog_bytes = uint(catalog, "catalog_bytes", "catalog")?;
        for (name, w) in members {
            let cache_fraction = float(w, "cache_fraction", name)?;
            let topology = match string(w, "topology", name)?.as_str() {
                "standalone" => Topology::Standalone,
                "cluster" => Topology::Cluster,
                other => return Err(format!("{name}: unknown topology {other:?}")),
            };
            let workload = Workload {
                name: name.clone(),
                topology,
                nodes: if topology == Topology::Cluster {
                    uint(w, "nodes", name)? as usize
                } else {
                    1
                },
                shards: uint(w, "shards", name)? as usize,
                partitioner: string(w, "partitioner", name)?,
                replicas: uint(w, "replicas", name)? as u16,
                cache_fraction,
                cache_bytes: (catalog_bytes as f64 * cache_fraction) as u64,
                query_share: float(w, "query_share", name)?,
                trace_events: uint(w, "trace_events", name)? as usize,
                closed_events: uint(w, "closed_events", name)? as usize,
                closed_batch: uint(w, "closed_batch", name)?.max(1) as usize,
                closed_window: uint(w, "closed_window", name)?.max(1) as usize,
                open_rate_eps: float(w, "open_rate_eps", name)?,
            };
            if workload.closed_events == 0 || workload.closed_events >= workload.trace_events {
                return Err(format!("{name}: need 0 < closed_events < trace_events"));
            }
            if !(0.0..=1.0).contains(&workload.query_share)
                || !(0.0..=1.0).contains(&workload.cache_fraction)
                || workload.open_rate_eps <= 0.0
            {
                return Err(format!(
                    "{name}: query_share, cache_fraction or open_rate_eps out of range"
                ));
            }
            workloads.push(workload);
        }
        Ok(Spec {
            catalog_objects: uint(catalog, "objects", "catalog")? as usize,
            catalog_bytes,
            policy_seed: uint(&root, "policy_seed", "spec")?,
            calibration_events: uint(calibration, "events", "calibration")? as usize,
            workloads,
        })
    }

    pub fn workload(&self, name: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| w.name == name)
    }
}
