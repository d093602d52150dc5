//! Input generation: the paper-preset catalog, the seeded §6.1 trace of
//! one workload, the per-shard ledgers the run must reproduce, and the
//! fixed-work calibration probe.

use crate::spec::{Spec, Workload};
use delta_core::{sim, CostLedger};
use delta_server::{shard_trace, PartitionerKind, PolicyKind};
use delta_storage::ObjectCatalog;
use delta_workload::{SyntheticSurvey, Trace, WorkloadConfig};
use std::time::Instant;

/// Everything a run feeds the system under test and checks it against.
pub struct Inputs {
    pub catalog: ObjectCatalog,
    pub trace: Trace,
    /// `sim::simulate` over `shard_trace` of the whole trace, per shard.
    pub expected: Vec<CostLedger>,
    /// The same over the closed-loop prefix alone.
    pub expected_prefix: Vec<CostLedger>,
}

/// The paper preset's catalog (68 objects, 800 GB), which does not
/// depend on the workload seed, plus the survey it came from so traces
/// can be regenerated over it.
pub fn paper_survey(spec: &Spec) -> Result<SyntheticSurvey, String> {
    let mut cfg = WorkloadConfig::sdss_like();
    // Only the catalog is wanted here; the trace comes from
    // `workload_trace` with the run's seed.
    cfg.n_queries = 1;
    cfg.n_updates = 0;
    let survey = SyntheticSurvey::generate(&cfg);
    if survey.catalog.len() != spec.catalog_objects
        || survey.catalog.total_bytes() != spec.catalog_bytes
    {
        return Err(format!(
            "paper catalog is {} objects / {} bytes, workloads.json records {} / {}",
            survey.catalog.len(),
            survey.catalog.total_bytes(),
            spec.catalog_objects,
            spec.catalog_bytes
        ));
    }
    Ok(survey)
}

/// The workload's canonical trace: the paper preset's §6.1 generator,
/// from the preset's own seed, with the workload's length and mix. It
/// does not depend on the run's seed — every run of a workload replays
/// the same trace, so its ledgers, and therefore `network_cost_gb`, are
/// exact. The run's seed drives the open-loop arrival schedule.
pub fn workload_trace(survey: &SyntheticSurvey, events: usize, query_share: f64) -> Trace {
    let mut cfg = survey.config.clone();
    cfg.n_queries = ((events as f64 * query_share).round() as usize).clamp(1, events);
    cfg.n_updates = events - cfg.n_queries;
    survey.regenerate_trace(&cfg)
}

/// Per-shard expected ledgers: the offline twin of the deployment.
pub fn expected_ledgers(
    w: &Workload,
    policy_seed: u64,
    catalog: &ObjectCatalog,
    trace: &Trace,
) -> Vec<CostLedger> {
    let kind = PartitionerKind::parse(&w.partitioner).expect("partitioner validated");
    let map = kind.build(w.shards, catalog.len());
    let shards = shard_trace(map.as_ref(), catalog, trace, w.cache_bytes);
    std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(shard, (cat, tr, cache))| {
                s.spawn(move || {
                    let mut policy = PolicyKind::VCover.build(*cache, policy_seed + shard as u64);
                    let opts = sim::SimOptions {
                        cache_bytes: *cache,
                        sample_every: u64::MAX,
                        link: None,
                    };
                    sim::simulate(policy.as_mut(), cat, tr, opts).ledger
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sim thread"))
            .collect()
    })
}

/// Generates and checks one workload's inputs.
pub fn build(spec: &Spec, w: &Workload) -> Result<Inputs, String> {
    let survey = paper_survey(spec)?;
    let trace = workload_trace(&survey, w.trace_events, w.query_share);
    let expected = expected_ledgers(w, spec.policy_seed, &survey.catalog, &trace);
    let prefix = Trace::new(trace.events[..w.closed_events].to_vec());
    let expected_prefix = expected_ledgers(w, spec.policy_seed, &survey.catalog, &prefix);
    Ok(Inputs {
        catalog: survey.catalog,
        trace,
        expected,
        expected_prefix,
    })
}

/// Replays of the probe trace per probe sample: one `NoCache` replay of
/// the probe trace takes only a few ms.
const PROBE_REPLAYS: usize = 20;

/// Fixed-work CPU probe: in-process `NoCache` replays, on one shard, of a
/// fixed trace (the canonical generator at `calibration.events`, half
/// queries); [`PROBE_REPLAYS`] replays per sample, median of five
/// samples. With no cache the policy decides nothing, so the probe
/// follows the machine more than the build. It is reported beside the
/// metrics so a slower machine shows apart from a slower build; it is
/// never gated and rescales nothing.
pub fn calibration_probe_ms(spec: &Spec) -> Result<f64, String> {
    let survey = paper_survey(spec)?;
    let trace = workload_trace(&survey, spec.calibration_events, 0.5);
    let opts = sim::SimOptions {
        cache_bytes: 0,
        sample_every: u64::MAX,
        link: None,
    };
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..PROBE_REPLAYS {
                let mut policy = PolicyKind::NoCache.build(0, spec.policy_seed);
                let report = sim::simulate(policy.as_mut(), &survey.catalog, &trace, opts);
                std::hint::black_box(report.ledger.total());
            }
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    Ok(times[2])
}
