//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --bin-dir DIR [--spec FILE] [--run-dir DIR]
//!           [--tiny] [--corrupt-expected | --corrupt-reply-kind]
//! ```
//!
//! `--trace 0` deploys the release daemons fresh for every iteration,
//! replays the workload's closed-loop prefix, then its open-loop suffix,
//! checks the ledgers and the reply types, and repeats until `--seconds`
//! have passed; it reports the medians of the end-to-end metrics over the
//! iterations that neither the generator nor the host disturbed. `--trace 1` is the
//! separate traced run: it replays the same trace through each layer's
//! public functions and reports the per-layer metrics (see `layers`).
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it (`detail`)
//! carries sample counts, quartiles, ops timed out, the generator's
//! lateness and the calibration probe. Exit status: 0 when the gate
//! passed, 1 when it failed (the result line is still
//! printed), 2 on bad arguments or a broken environment. A run in which
//! no iteration was undisturbed (the open-loop generator fell behind its
//! schedule, or the hypervisor stole the CPUs) reports its figures over
//! the disturbed iterations and is marked `"valid": false` on the
//! `detail` line: invalid, not fast.

mod deploy;
mod drive;
mod gate;
mod host;
mod inputs;
mod layers;
mod spans;
mod spec;
mod stats;

use delta_server::StatsSnapshot;
use delta_workload::Event;
use serde_json::Value;
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

/// An open-loop iteration whose generator sent its p99 event later than
/// this against the schedule measured the generator or a stalled host,
/// not the system (on a quiet 2-vCPU VM the p99 is about 0.1 ms).
const LATE_LIMIT_NS: u64 = 1_000_000;
/// An iteration during which the hypervisor stole more than this share of
/// the CPU time measured the host (see `host`). A busy iteration on a
/// quiet host loses under 1%; in slow phases of the host 1.3–9%.
const STEAL_LIMIT: f64 = 0.01;
/// Undisturbed iterations a measured run aims for.
const MIN_VALID: u64 = 3;
/// How long a run may measure past `--seconds` to get them; a run that
/// ends with none is marked invalid.
const OVERTIME: Duration = Duration::from_secs(20);
/// Closed-loop-only replays, each on a fresh deployment, per iteration:
/// one closed loop lasts 1–2 s, and the median of one per iteration
/// moved too much from run to run.
const CLOSED_REPLAYS: usize = 3;
/// Extra set-up-only deployments per iteration (standalone, cluster):
/// set-up time is sampled often enough that its median is steady.
const SETUP_EXTRA: (usize, usize) = (4, 1);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub bin_dir: PathBuf,
    pub spec: PathBuf,
    pub run_dir: PathBuf,
    pub tiny: bool,
    pub corrupt_expected: bool,
    pub corrupt_reply_kind: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --bin-dir DIR \
         [--spec FILE] [--run-dir DIR] [--tiny] [--corrupt-expected] [--corrupt-reply-kind]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        bin_dir: PathBuf::new(),
        spec: PathBuf::from("perfbench/workloads.json"),
        run_dir: PathBuf::from(".bench_run"),
        tiny: false,
        corrupt_expected: false,
        corrupt_reply_kind: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--tiny" => a.tiny = true,
            "--corrupt-expected" => a.corrupt_expected = true,
            "--corrupt-reply-kind" => a.corrupt_reply_kind = true,
            _ => {
                let v = argv.get(i + 1).cloned().unwrap_or_else(|| usage());
                let num = |v: &str| v.parse::<u64>().unwrap_or_else(|_| usage());
                match flag {
                    "--workload" => a.workload = v,
                    "--seed" => a.seed = num(&v),
                    "--seconds" => a.seconds = num(&v),
                    "--trace" => a.trace = num(&v) != 0,
                    "--bin-dir" => a.bin_dir = PathBuf::from(v),
                    "--spec" => a.spec = PathBuf::from(v),
                    "--run-dir" => a.run_dir = PathBuf::from(v),
                    _ => usage(),
                }
                i += 1;
            }
        }
        i += 1;
    }
    if a.workload.is_empty() || a.bin_dir.as_os_str().is_empty() {
        usage();
    }
    a
}

/// One metric in the result line.
pub fn metric(name: &str, value: f64, unit: &str) -> (String, Value) {
    (
        name.to_string(),
        Value::Object(vec![
            ("value".into(), Value::Float(value)),
            ("unit".into(), Value::String(unit.into())),
        ]),
    )
}

fn num(v: f64) -> Value {
    Value::Float(v)
}

fn uint(v: u64) -> Value {
    Value::UInt(v)
}

/// Quartiles (q1, median, q3) of per-iteration values.
fn quartiles(values: &[f64]) -> Value {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((q * (v.len() - 1) as f64).round() as usize).min(v.len() - 1)];
    Value::Array(vec![num(at(0.25)), num(at(0.5)), num(at(0.75))])
}

/// Ops and verdicts over the whole run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub timed_out: u64,
    pub gate_failures: Vec<String>,
    pub iterations: u64,
    /// Iterations whose figures were kept.
    pub valid: u64,
    /// Why each dropped iteration was dropped.
    pub disturbed: Vec<String>,
}

impl Tally {
    /// The correctness gate of one iteration: the per-shard ledgers must
    /// equal the expected ones and every reply must have the expected
    /// type. A mismatch fails every op of the iteration.
    fn gate(&mut self, it: &Iteration, inputs: &inputs::Inputs) {
        let n = inputs.trace.len() as u64 + it.replayed_events;
        self.attempted += n;
        self.iterations += 1;
        let mut problems = gate::ledger_mismatches(&it.stats, &inputs.expected);
        let wrong = it.closed.failed + it.open.failed;
        if wrong > 0 {
            problems.push(format!("{wrong} replies missing or of the wrong type"));
        }
        problems.extend(it.replay_problems.iter().cloned());
        if problems.is_empty() {
            self.failed += it.open.timed_out;
        } else {
            self.failed += n;
            let i = self.iterations;
            self.gate_failures
                .extend(problems.into_iter().map(|p| format!("iteration {i}: {p}")));
        }
        self.timed_out += it.open.timed_out;
    }
}

/// One iteration: on a fresh deployment set-up, closed loop and open
/// loop; then closed-loop-only replays and set-up-only deployments.
pub struct Iteration {
    /// Every deployment's set-up.
    pub setup_s: Vec<f64>,
    /// Closed-loop events/s of the main replay, then of each extra one.
    pub throughput_eps: Vec<f64>,
    /// Events of the extra closed-loop replays.
    pub replayed_events: u64,
    /// How the extra replays failed the gate (their ledgers are checked
    /// against the prefix's expected ledgers).
    pub replay_problems: Vec<String>,
    pub closed: drive::ClosedResult,
    pub open: drive::OpenResult,
    pub stats: StatsSnapshot,
    pub peak_rss_mb: f64,
    pub late_p99_ns: u64,
    /// The share of CPU time the hypervisor stole during the iteration
    /// (`None`: unknown, or the iteration was too short to tell).
    pub steal: Option<f64>,
}

impl Iteration {
    /// Why the generator or the host, not the system, set this
    /// iteration's figures (`None`: the figures stand).
    fn disturbed(&self) -> Option<String> {
        if self.late_p99_ns > LATE_LIMIT_NS {
            return Some(format!(
                "generator sent its p99 event {:.2} ms late",
                self.late_p99_ns as f64 / 1e6
            ));
        }
        self.steal
            .filter(|&s| s > STEAL_LIMIT)
            .map(|s| format!("hypervisor stole {:.1}% of the CPU time", 100.0 * s))
    }
}

/// What every iteration of a workload replays, and the inputs it is
/// checked against.
pub struct Replay<'a> {
    pub inputs: &'a inputs::Inputs,
    pub closed: Vec<drive::Frame>,
    pub open: &'a [Event],
    pub sched: Vec<u64>,
}

impl<'a> Replay<'a> {
    pub fn new(w: &spec::Workload, inputs: &'a inputs::Inputs, seed: u64) -> Replay<'a> {
        let open = &inputs.trace.events[w.closed_events..];
        Replay {
            inputs,
            closed: drive::frames(&inputs.trace.events[..w.closed_events], w.closed_batch),
            open,
            sched: drive::schedule(open.len(), w.open_rate_eps, seed),
        }
    }
}

/// Extra deployments per iteration.
#[derive(Clone, Copy)]
pub struct Extras {
    /// Closed-loop-only replays.
    pub replays: usize,
    /// Set-up-only deployments.
    pub setups: usize,
}

fn run_iteration(
    w: &spec::Workload,
    env: &deploy::Env,
    replay: &Replay,
    extras: Extras,
) -> Result<Iteration, String> {
    let cpu = host::cpu_times();
    let dep = deploy::Deployment::start(w, env)?;
    let closed = drive::closed_loop(dep.front, &replay.closed, w.closed_window, false)?;
    let open = drive::open_loop(dep.front, replay.open, &replay.sched)?;
    let stats = dep.stats()?;
    let peak_rss_mb = dep.peak_rss_mb()?;
    let mut setup_s = vec![dep.setup.as_secs_f64()];
    dep.shutdown()?;
    let mut throughput_eps = vec![closed.events as f64 / closed.elapsed.as_secs_f64()];
    let (mut replayed_events, mut replay_problems) = (0, Vec::new());
    for r in 1..=extras.replays {
        let d = deploy::Deployment::start(w, env)?;
        let c = drive::closed_loop(d.front, &replay.closed, w.closed_window, false)?;
        let stats = d.stats()?;
        setup_s.push(d.setup.as_secs_f64());
        d.shutdown()?;
        throughput_eps.push(c.events as f64 / c.elapsed.as_secs_f64());
        replayed_events += c.events;
        let mut problems = gate::ledger_mismatches(&stats, &replay.inputs.expected_prefix);
        if c.failed > 0 {
            problems.push(format!("{} replies missing or of the wrong type", c.failed));
        }
        replay_problems.extend(problems.into_iter().map(|p| format!("replay {r}: {p}")));
    }
    for _ in 0..extras.setups {
        let d = deploy::Deployment::start(w, env)?;
        setup_s.push(d.setup.as_secs_f64());
        d.shutdown()?;
    }
    let steal = host::steal_share(cpu, host::cpu_times());
    let mut late = open.late_ns.clone();
    late.sort_unstable();
    Ok(Iteration {
        setup_s,
        throughput_eps,
        replayed_events,
        replay_problems,
        closed,
        open,
        stats,
        peak_rss_mb,
        late_p99_ns: stats::quantile_sorted(&late, 0.99),
        steal,
    })
}

/// Runs iterations until `budget` has passed and `want_valid` of them
/// were undisturbed (at least `want_valid` iterations in all), or until
/// `budget + OVERTIME`. Every iteration passes the gate; the undisturbed
/// ones are returned, or every iteration when none was undisturbed (the
/// run is then invalid: `tally.valid` is 0).
pub fn iterate(
    w: &spec::Workload,
    env: &deploy::Env,
    replay: &Replay,
    budget: Duration,
    want_valid: u64,
    extras: Extras,
    tally: &mut Tally,
) -> Result<Vec<Iteration>, String> {
    let (mut kept, mut dropped) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    loop {
        let elapsed = t0.elapsed();
        let done = elapsed >= budget && tally.valid >= want_valid;
        if done || elapsed >= budget + OVERTIME {
            return Ok(if kept.is_empty() { dropped } else { kept });
        }
        let it = run_iteration(w, env, replay, extras)?;
        tally.gate(&it, replay.inputs);
        let verdict = it.disturbed();
        eprintln!(
            "perfbench: {} iteration {}: setup {:.4}s, {:.0} ev/s closed (median), p50 {:.0}us, late p99 {:.0}us, backlog max {}, steal {}{}",
            w.name,
            tally.iterations,
            it.setup_s[0],
            stats::median(&it.throughput_eps),
            stats::latency_quantile(&it.open.latency_ns, 0.5) as f64 / 1e3,
            it.late_p99_ns as f64 / 1e3,
            it.open.backlog_max,
            it.steal
                .map(|s| format!("{:.1}%", 100.0 * s))
                .unwrap_or_else(|| "n/a".into()),
            verdict.as_deref().map(|v| format!(" — dropped: {v}")).unwrap_or_default(),
        );
        match verdict {
            Some(why) => {
                tally
                    .disturbed
                    .push(format!("iteration {}: {why}", tally.iterations));
                dropped.push(it);
            }
            None => {
                tally.valid += 1;
                kept.push(it);
            }
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    exit(2);
}

fn main() {
    let args = parse_args();
    let spec = spec::Spec::load(&args.spec).unwrap_or_else(|e| fail(&e));
    let mut workload = spec
        .workload(&args.workload)
        .cloned()
        .unwrap_or_else(|| fail(&format!("unknown workload {:?}", args.workload)));
    if args.tiny {
        workload = workload.tiny();
    }
    for bin in ["delta-serverd", "delta-routerd"] {
        if !args.bin_dir.join(bin).is_file() {
            fail(&format!("{} not found in {}", bin, args.bin_dir.display()));
        }
    }
    let run_dir = args.run_dir.join(format!(
        "{}-{}-{}",
        workload.name,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir).unwrap_or_else(|e| fail(&format!("run dir: {e}")));
    let fail = |msg: &str| -> ! {
        let _ = std::fs::remove_dir_all(&run_dir);
        fail(msg)
    };

    let mut inputs = inputs::build(&spec, &workload).unwrap_or_else(|e| fail(&e));
    if args.corrupt_expected {
        inputs.expected[0].breakdown.load.0 += 1;
    }
    let env = deploy::Env {
        bin_dir: args.bin_dir.clone(),
        catalog_file: run_dir.join("catalog.jsonl"),
        run_dir: run_dir.clone(),
        policy_seed: spec.policy_seed,
    };
    deploy::write_catalog(&env.catalog_file, &inputs.catalog).unwrap_or_else(|e| fail(&e));
    let probe_ms = inputs::calibration_probe_ms(&spec).unwrap_or_else(|e| fail(&e));
    let mut replay = Replay::new(&workload, &inputs, args.seed);
    if args.corrupt_reply_kind {
        // The checker expects the other kind of reply for the first event.
        let kind = &mut replay.closed[0].kinds[0];
        *kind = !*kind;
    }

    let (metrics, tally, mut detail) = if args.trace {
        layers::traced_run(&workload, &env, &inputs, &replay, &args).unwrap_or_else(|e| fail(&e))
    } else {
        measured_run(&workload, &env, &inputs, &replay, &args).unwrap_or_else(|e| fail(&e))
    };
    detail.push(("cache_bytes".into(), uint(workload.cache_bytes)));
    detail.push(("calibration_probe_ms".into(), num(probe_ms)));
    detail.push(("timed_out".into(), uint(tally.timed_out)));
    detail.push(("iterations".into(), uint(tally.iterations)));
    detail.push(("valid".into(), Value::Bool(tally.valid > 0)));
    detail.push(("valid_iterations".into(), uint(tally.valid)));
    let strings = |v: &[String]| Value::Array(v.iter().cloned().map(Value::String).collect());
    detail.push(("dropped_iterations".into(), strings(&tally.disturbed)));
    detail.push(("gate_failures".into(), strings(&tally.gate_failures)));
    let correct = tally.gate_failures.is_empty();
    println!(
        "{}",
        Value::Object(vec![("detail".into(), Value::Object(detail))]).to_json_string()
    );
    let _ = std::fs::remove_dir_all(&run_dir);
    if tally.valid == 0 {
        eprintln!(
            "perfbench: run invalid: none of {} iterations was undisturbed, so its figures measured the host: {:?}",
            tally.iterations, tally.disturbed
        );
    }
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), uint(tally.attempted.max(1))),
        ("failed".into(), uint(tally.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", result.to_json_string());
    if !correct {
        eprintln!(
            "perfbench: correctness gate failed: {:?}",
            tally.gate_failures
        );
        exit(1);
    }
}

pub type RunOutput = (Vec<(String, Value)>, Tally, Vec<(String, Value)>);

/// The untraced run: fresh deployments, closed then open loop, gate,
/// repeated until the time is up; medians over the undisturbed
/// iterations.
fn measured_run(
    w: &spec::Workload,
    env: &deploy::Env,
    inputs: &inputs::Inputs,
    replay: &Replay,
    args: &Args,
) -> Result<RunOutput, String> {
    let extras = Extras {
        replays: CLOSED_REPLAYS,
        setups: match w.topology {
            spec::Topology::Standalone => SETUP_EXTRA.0,
            spec::Topology::Cluster => SETUP_EXTRA.1,
        },
    };
    let mut tally = Tally::default();
    let kept = iterate(
        w,
        env,
        replay,
        Duration::from_secs(args.seconds),
        MIN_VALID,
        extras,
        &mut tally,
    )?;
    let kinds: Vec<bool> = replay.open.iter().map(Event::is_query).collect();
    let mut latency = stats::OpenLatency::default();
    for it in &kept {
        latency.add(&kinds, &it.open.latency_ns);
    }
    let per_it = |f: &dyn Fn(&Iteration) -> f64| kept.iter().map(f).collect::<Vec<f64>>();
    let setup_s: Vec<f64> = kept.iter().flat_map(|it| it.setup_s.clone()).collect();
    let throughput: Vec<f64> = kept
        .iter()
        .flat_map(|it| it.throughput_eps.clone())
        .collect();
    let peak_rss = per_it(&|it| it.peak_rss_mb);
    let m = stats::median;
    let metrics = vec![
        metric("setup_s", m(&setup_s), "s"),
        metric("throughput_eps", m(&throughput), "events/s"),
        metric("query_p50_us", stats::median_us(&latency.query_p50), "us"),
        metric("update_p50_us", stats::median_us(&latency.update_p50), "us"),
        metric(
            "network_cost_gb",
            m(&per_it(&|it| gate::network_cost_gb(&it.stats))),
            "GB",
        ),
        metric("peak_rss_mb", m(&peak_rss), "MB"),
    ];
    let mut detail = vec![
        ("workload".into(), Value::String(w.name.clone())),
        ("seed".into(), uint(args.seed)),
        ("trace_events".into(), uint(inputs.trace.len() as u64)),
        ("closed_events".into(), uint(w.closed_events as u64)),
        ("open_events".into(), uint(replay.open.len() as u64)),
        ("setup_samples".into(), uint(setup_s.len() as u64)),
        ("throughput_samples".into(), uint(throughput.len() as u64)),
        ("query_latency_samples".into(), uint(latency.query_samples)),
        (
            "update_latency_samples".into(),
            uint(latency.update_samples),
        ),
        (
            "latency_windows".into(),
            uint(latency.query_p50.len().max(latency.update_p50.len()) as u64),
        ),
        (
            "query_p90_us".into(),
            num(stats::median_us(&latency.query_p90)),
        ),
        (
            "update_p90_us".into(),
            num(stats::median_us(&latency.update_p90)),
        ),
        (
            "query_p99_us".into(),
            num(stats::median_us(&latency.query_p99)),
        ),
        (
            "update_p99_us".into(),
            num(stats::median_us(&latency.update_p99)),
        ),
        (
            "p99_chunks".into(),
            uint((latency.query_p99.len() + latency.update_p99.len()) as u64),
        ),
        (
            "loadgen.late_p99_us".into(),
            num(m(&per_it(&|it| it.late_p99_ns as f64 / 1e3))),
        ),
        (
            "pooled_query_p99_us".into(),
            num(stats::latency_quantile(&latency.query_pool, 0.99) as f64 / 1e3),
        ),
        (
            "pooled_update_p99_us".into(),
            num(stats::latency_quantile(&latency.update_pool, 0.99) as f64 / 1e3),
        ),
        (
            "loadgen.backlog_max".into(),
            num(per_it(&|it| it.open.backlog_max as f64)
                .into_iter()
                .fold(0.0, f64::max)),
        ),
    ];
    let us = |v: &[u64]| v.iter().map(|&x| x as f64 / 1e3).collect::<Vec<f64>>();
    for (name, values) in [
        ("setup_s", setup_s.clone()),
        ("throughput_eps", throughput),
        ("query_p50_us", us(&latency.query_p50)),
        ("query_p90_us", us(&latency.query_p90)),
        ("query_p99_us", us(&latency.query_p99)),
        ("update_p50_us", us(&latency.update_p50)),
        ("update_p90_us", us(&latency.update_p90)),
        ("update_p99_us", us(&latency.update_p99)),
        ("peak_rss_mb", peak_rss),
    ] {
        if !values.is_empty() {
            detail.push((format!("{name}.quartiles"), quartiles(&values)));
        }
    }
    Ok((metrics, tally, detail))
}
