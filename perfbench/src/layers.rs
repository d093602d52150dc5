//! The traced run: the workload's closed-loop prefix replayed through a
//! stack of ever-larger slices of the system, from the benchmark's own
//! code, plus three undisturbed untraced end-to-end iterations on the
//! daemons.
//!
//! | step | what runs | time |
//! |---|---|---|
//! | S0 | `Engine::apply`, shard by shard, over `shard_trace` | T0 |
//! | S1 | `ShardCore::run_batch` per touched shard per frame | T1 |
//! | codec | request + reply encode and decode of every frame | Tc |
//! | S3 | in-process `Server` over loopback (reactor front door) | T3 |
//! | S4 | in-process `Router` over 2 in-process nodes | T4 |
//! | S5 | S4 with `replicas = 1` | T5 |
//!
//! A layer behind a socket costs the difference between neighbouring
//! steps: engine = T0 (its untraced pass), shard self = T1 − T0, wire = T3 − T1 − Tc,
//! router hop = T4 − T3, replica ack wait = T5 − T4. In-process layers
//! are timed by spans around their public calls. Program counters are
//! read only through the `Telemetry` verb and
//! `CachingPolicy::attach_instruments`. The residual is the end-to-end
//! closed-loop time on the daemons minus the in-process step that
//! matches the workload's deployment (S3 standalone, S5 replicated).

use crate::deploy::{self, Env};
use crate::drive::{self, Frame};
use crate::inputs::Inputs;
use crate::spans::{Spans, ROOT};
use crate::spec::{Topology, Workload};
use crate::{iterate, metric, stats, Args, Extras, Iteration, Replay, RunOutput, Tally};
use delta_core::engine::Engine;
use delta_core::{CachingPolicy, CostLedger, PolicyInstruments};
use delta_server::protocol::append_frame_with;
use delta_server::shard::{ShardCore, ShardOp, ShardSpec, ShardTelemetry};
use delta_server::{
    BatchReply, ClusterConfig, DeltaClient, FrontDoor, Partitioner, PartitionerKind, PolicyKind,
    ReplicationConfig, Request, Response, Router, RouterConfig, Server, ServerConfig,
};
use delta_storage::ObjectCatalog;
use delta_telemetry::{Counter, Gauge, Histogram, HistogramSnapshot, Telemetry, TelemetrySnapshot};
use delta_workload::Event;
use serde_json::Value;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every `SPAN_SAMPLE`-th request's spans are written to the span file.
const SPAN_SAMPLE: u64 = 16;

/// One frame of the closed-loop prefix, pre-split into shard work.
struct SplitFrame {
    /// Per touched shard, its ops in item order.
    per_shard: Vec<(usize, Vec<ShardOp>)>,
}

fn split_frames(
    map: &dyn Partitioner,
    catalog: &ObjectCatalog,
    events: &[Event],
    batch: usize,
) -> (Vec<SplitFrame>, u64, u64) {
    let (mut queries, mut subqueries) = (0u64, 0u64);
    let frames = events
        .chunks(batch)
        .map(|chunk| {
            let mut per_shard: Vec<(usize, Vec<ShardOp>)> = Vec::new();
            let mut push =
                |shard: usize, op: ShardOp| match per_shard.iter_mut().find(|(s, _)| *s == shard) {
                    Some((_, ops)) => ops.push(op),
                    None => per_shard.push((shard, vec![op])),
                };
            for (item, e) in chunk.iter().enumerate() {
                let item = item as u32;
                match e {
                    Event::Query(q) => {
                        queries += 1;
                        for (shard, event) in map.split_query(q, catalog) {
                            subqueries += 1;
                            push(shard, ShardOp::Query { item, event });
                        }
                    }
                    Event::Update(u) => {
                        let (shard, event) = map.split_update(u);
                        push(shard, ShardOp::Update { item, event });
                    }
                }
            }
            SplitFrame { per_shard }
        })
        .collect();
    (frames, queries, subqueries)
}

fn instruments() -> PolicyInstruments {
    PolicyInstruments {
        solve_ns: Arc::new(Histogram::new()),
        graph_nodes: Arc::new(Gauge::default()),
        graph_edges: Arc::new(Gauge::default()),
        solves: Arc::new(Counter::default()),
    }
}

/// A shard engine built exactly as `ShardCore::new` builds one.
fn shard_engine(
    policy_seed: u64,
    shard: usize,
    catalog: &ObjectCatalog,
    cache: u64,
    instruments: Option<PolicyInstruments>,
) -> Engine<'static, dyn CachingPolicy + Send> {
    let mut policy = PolicyKind::VCover.build(cache, policy_seed + shard as u64);
    if let Some(i) = instruments {
        policy.attach_instruments(i);
    }
    let mut e = Engine::new(policy, catalog, cache).clamp_clock(true);
    e.init(None);
    e
}

/// S0: what the engine layer observed.
#[derive(Default)]
struct EngineLayer {
    total_ns: u64,
    plain_ns: u64,
    query_ns: Vec<u64>,
    update_ns: u64,
    updates: u64,
    solves: u64,
    solve_ns: u64,
    solve_hist: HistogramSnapshot,
    graph_nodes_max: u64,
    ledger: CostLedger,
}

/// The shard-local event streams of the split frames, per shard, each
/// event tagged with the frame it came from.
fn shard_streams(frames: &[SplitFrame], shards: usize) -> Vec<Vec<(u64, Event)>> {
    let mut out: Vec<Vec<(u64, Event)>> = vec![Vec::new(); shards];
    for (f, frame) in frames.iter().enumerate() {
        for (shard, ops) in &frame.per_shard {
            for op in ops {
                out[*shard].push((
                    f as u64,
                    match op {
                        ShardOp::Query { event, .. } => Event::Query(event.clone()),
                        ShardOp::Update { event, .. } => Event::Update(*event),
                    },
                ));
            }
        }
    }
    out
}

fn engine_layer(
    w: &Workload,
    policy_seed: u64,
    map: &dyn Partitioner,
    catalog: &ObjectCatalog,
    streams: &[Vec<(u64, Event)>],
    spans: &mut Spans,
) -> Result<EngineLayer, String> {
    let caches = map.shard_cache_bytes(w.cache_bytes, catalog);
    let mut out = EngineLayer::default();
    // Untraced pass: the same work with no spans and no instruments,
    // so the traced pass's excess is the tracing overhead.
    for (shard, stream) in streams.iter().enumerate() {
        let cat = map.shard_catalog(shard, catalog);
        let mut engine = shard_engine(policy_seed, shard, &cat, caches[shard], None);
        let t0 = Instant::now();
        for (_, e) in stream {
            engine.apply(e).map_err(|e| format!("engine: {e}"))?;
        }
        out.plain_ns += t0.elapsed().as_nanos() as u64;
    }
    for (shard, stream) in streams.iter().enumerate() {
        let cat = map.shard_catalog(shard, catalog);
        let inst = instruments();
        let (solve_ns, graph_nodes, solves) = (
            inst.solve_ns.clone(),
            inst.graph_nodes.clone(),
            inst.solves.clone(),
        );
        let mut engine = shard_engine(policy_seed, shard, &cat, caches[shard], Some(inst));
        let t0 = Instant::now();
        for (frame, e) in stream {
            let start = spans.now();
            engine.apply(e).map_err(|e| format!("engine: {e}"))?;
            let end = spans.now();
            spans.push("engine.apply", start, end, ROOT, *frame);
            if e.is_query() {
                out.query_ns.push(end - start);
            } else {
                out.update_ns += end - start;
                out.updates += 1;
            }
            out.graph_nodes_max = out.graph_nodes_max.max(graph_nodes.get());
        }
        out.total_ns += t0.elapsed().as_nanos() as u64;
        let snap = solve_ns.snapshot();
        out.solves += solves.get();
        out.solve_ns += snap.sum;
        out.solve_hist.merge(&snap);
        out.ledger.absorb(engine.ledger());
    }
    Ok(out)
}

/// S1: `ShardCore::run_batch` per touched shard per frame, one thread.
struct ShardLayer {
    total_ns: u64,
    /// Shard busy time of each frame (the sum of its `run_batch` spans).
    frame_busy_ns: Vec<u64>,
    failed: u64,
}

fn shard_layer(
    w: &Workload,
    policy_seed: u64,
    map: &dyn Partitioner,
    catalog: &ObjectCatalog,
    frames: &[SplitFrame],
    spans: &mut Spans,
) -> ShardLayer {
    let caches = map.shard_cache_bytes(w.cache_bytes, catalog);
    let registry = Telemetry::new();
    let cores: Vec<ShardCore> = (0..map.n_shards())
        .map(|s| {
            ShardCore::new(ShardSpec {
                shard: s as u16,
                catalog: map.shard_catalog(s, catalog),
                cache_bytes: caches[s],
                policy: PolicyKind::VCover,
                seed: policy_seed + s as u64,
                restore: None,
                snapshot_path: None,
                telemetry: ShardTelemetry::register(&registry),
            })
        })
        .collect();
    let mut out = ShardLayer {
        total_ns: 0,
        frame_busy_ns: Vec::with_capacity(frames.len()),
        failed: 0,
    };
    for (f, frame) in frames.iter().enumerate() {
        let batches: Vec<(usize, Vec<ShardOp>)> = frame.per_shard.clone();
        let frame_start = spans.now();
        let parent = spans.push("shard.frame", frame_start, frame_start, ROOT, f as u64);
        let mut busy = 0u64;
        for (shard, ops) in batches {
            let start = spans.now();
            let outcomes = cores[shard].run_batch(ops);
            let end = spans.now();
            spans.push("shard.run_batch", start, end, parent, f as u64);
            busy += end - start;
            out.failed += outcomes
                .iter()
                .filter(|o| matches!(o, delta_server::shard::OpOutcome::QueryFailed { .. }))
                .count() as u64;
        }
        spans.close(parent, spans.now());
        out.frame_busy_ns.push(busy);
        out.total_ns += busy;
    }
    out
}

/// The reply the server sends for `frame` (shape only; the values do
/// not change the codec's work materially).
fn reply_for(frame: &Frame, split: &SplitFrame) -> Response {
    let touched = |item: u32| {
        split
            .per_shard
            .iter()
            .filter(|(_, ops)| {
                ops.iter()
                    .any(|op| matches!(op, ShardOp::Query { item: i, .. } if *i == item))
            })
            .count() as u16
    };
    let items: Vec<BatchReply> = frame
        .kinds
        .iter()
        .enumerate()
        .map(|(i, &query)| {
            if query {
                let n = touched(i as u32);
                BatchReply::Query {
                    shards_touched: n,
                    local_answers: 0,
                    shipped: n,
                }
            } else {
                BatchReply::Update {
                    shard: 0,
                    version: 1,
                }
            }
        })
        .collect();
    match (&frame.request, items.as_slice()) {
        (Request::Batch(_), _) => Response::BatchOk(items),
        (_, [BatchReply::Query { shards_touched, .. }]) => Response::QueryOk {
            shards_touched: *shards_touched,
            local_answers: 0,
            shipped: *shards_touched,
        },
        _ => Response::UpdateOk {
            shard: 0,
            version: 1,
        },
    }
}

/// Codec: every frame's tagged request and reply, encoded and decoded
/// as the pipelined client and the server do.
struct CodecLayer {
    encode_ns: u64,
    decode_ns: u64,
    bytes: u64,
}

fn codec_layer(
    frames: &[Frame],
    split: &[SplitFrame],
    spans: &mut Spans,
) -> Result<CodecLayer, String> {
    let requests: Vec<Request> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| Request::Tagged {
            corr: i as u64,
            inner: Box::new(f.request.clone()),
        })
        .collect();
    let replies: Vec<Response> = frames
        .iter()
        .zip(split)
        .enumerate()
        .map(|(i, (f, s))| Response::Tagged {
            corr: i as u64,
            inner: Box::new(reply_for(f, s)),
        })
        .collect();
    let mut out = CodecLayer {
        encode_ns: 0,
        decode_ns: 0,
        bytes: 0,
    };
    let mut buf = Vec::new();
    for (i, (req, rep)) in requests.iter().zip(&replies).enumerate() {
        let t0 = spans.now();
        buf.clear();
        append_frame_with(&mut buf, |b| req.encode_into(b)).map_err(|e| format!("encode: {e}"))?;
        let t1 = spans.now();
        let decoded = Request::decode(&buf[4..]).map_err(|e| format!("decode: {e}"))?;
        let t2 = spans.now();
        std::hint::black_box(decoded);
        out.bytes += buf.len() as u64;
        buf.clear();
        let t3 = spans.now();
        append_frame_with(&mut buf, |b| rep.encode_into(b)).map_err(|e| format!("encode: {e}"))?;
        let t4 = spans.now();
        let decoded = Response::decode(&buf[4..]).map_err(|e| format!("decode: {e}"))?;
        let t5 = spans.now();
        std::hint::black_box(decoded);
        out.bytes += buf.len() as u64;
        spans.push("codec.request", t0, t2, ROOT, i as u64);
        spans.push("codec.reply", t3, t5, ROOT, i as u64);
        out.encode_ns += (t1 - t0) + (t4 - t3);
        out.decode_ns += (t2 - t1) + (t5 - t4);
    }
    Ok(out)
}

fn server_config(w: &Workload, policy_seed: u64, bind: String) -> Result<ServerConfig, String> {
    Ok(ServerConfig {
        bind,
        n_shards: w.shards,
        partitioner: PartitionerKind::parse(&w.partitioner)?,
        cache_bytes: w.cache_bytes,
        policy: PolicyKind::VCover,
        seed: policy_seed,
        ..ServerConfig::default()
    })
}

/// One replay through an in-process stack.
struct StackRun {
    closed: drive::ClosedResult,
    telemetry: TelemetrySnapshot,
    lag_max: u64,
}

/// S3: an in-process standalone server over loopback.
fn server_stack(
    w: &Workload,
    policy_seed: u64,
    catalog: &ObjectCatalog,
    frames: &[Frame],
) -> Result<StackRun, String> {
    let server = Server::start(
        server_config(w, policy_seed, "127.0.0.1:0".into())?,
        catalog.clone(),
    )
    .map_err(|e| format!("server: {e}"))?;
    let closed = drive::closed_loop(server.local_addr(), frames, w.closed_window, true);
    let telemetry = DeltaClient::connect(server.local_addr()).and_then(|mut c| c.telemetry());
    server.stop();
    let closed = closed?;
    Ok(StackRun {
        closed,
        telemetry: telemetry.map_err(|e| format!("telemetry: {e}"))?,
        lag_max: 0,
    })
}

/// S4/S5: an in-process router over two in-process nodes.
fn cluster_stack(
    w: &Workload,
    policy_seed: u64,
    catalog: &ObjectCatalog,
    frames: &[Frame],
    replicas: u16,
) -> Result<StackRun, String> {
    const NODES: u16 = 2;
    let addrs: Vec<SocketAddr> = (0..NODES)
        .map(|_| deploy::free_addr())
        .collect::<Result<_, _>>()?;
    let peers: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    let mut nodes = Vec::new();
    for node in 0..NODES {
        let mut cfg = server_config(w, policy_seed, peers[node as usize].clone())?;
        cfg.cluster = Some(ClusterConfig {
            node,
            nodes: NODES,
            hosted: ClusterConfig::default_hosted(node, NODES, w.shards),
        });
        if replicas > 0 {
            cfg.replication = Some(ReplicationConfig {
                replicas,
                peers: peers.clone(),
                backup_of: None,
            });
        }
        nodes.push(Server::start(cfg, catalog.clone()).map_err(|e| format!("node {node}: {e}"))?);
    }
    let router = Router::start(
        RouterConfig {
            bind: "127.0.0.1:0".into(),
            nodes: peers,
            frontend: None,
            front: FrontDoor::default(),
            stall_limit: delta_server::connection::STALL_LIMIT,
            node_timeout: RouterConfig::DEFAULT_NODE_TIMEOUT,
        },
        catalog.clone(),
    )
    .map_err(|e| format!("router: {e}"))?;
    let addr = router.local_addr();
    if replicas > 0 {
        deploy::await_bootstraps(addr, w.shards as u64 * replicas as u64)?;
    }
    // The replication lag gauge is sampled while the replay runs.
    let stop = Arc::new(AtomicBool::new(false));
    let lag_max = Arc::new(AtomicU64::new(0));
    let sampler = {
        let gauges: Vec<Arc<Gauge>> = nodes
            .iter()
            .map(|n| n.telemetry_handle().gauge("replica.lag_events"))
            .collect();
        let (stop, lag_max) = (Arc::clone(&stop), Arc::clone(&lag_max));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let lag: u64 = gauges.iter().map(|g| g.get()).sum();
                lag_max.fetch_max(lag, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(500));
            }
        })
    };
    let closed = drive::closed_loop(addr, frames, w.closed_window, true);
    stop.store(true, Ordering::Relaxed);
    let _ = sampler.join();
    let telemetry = DeltaClient::connect(addr).and_then(|mut c| c.telemetry());
    // A client Shutdown stops the router and, through it, the nodes.
    let _ = DeltaClient::connect(addr).and_then(|mut c| c.shutdown());
    router.join();
    for node in nodes {
        node.join();
    }
    let closed = closed?;
    Ok(StackRun {
        closed,
        telemetry: telemetry.map_err(|e| format!("telemetry: {e}"))?,
        lag_max: lag_max.load(Ordering::Relaxed),
    })
}

/// Median-of-`reps` replay of one stack (fresh stack each time); the
/// kept run is the one with the median elapsed time.
fn median_stack<F: FnMut() -> Result<StackRun, String>>(
    reps: usize,
    mut f: F,
) -> Result<StackRun, String> {
    let mut runs = (0..reps).map(|_| f()).collect::<Result<Vec<_>, _>>()?;
    runs.sort_by_key(|r| r.closed.elapsed);
    Ok(runs.swap_remove(reps / 2))
}

fn merged_histogram(t: &TelemetrySnapshot, prefix: &str) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::default();
    for (name, h) in &t.histograms {
        if name.starts_with(prefix) {
            out.merge(h);
        }
    }
    out
}

fn hist_mean(t: &TelemetrySnapshot, name: &str) -> f64 {
    t.histogram(name)
        .filter(|h| h.count > 0)
        .map(|h| h.sum as f64 / h.count as f64)
        .unwrap_or(0.0)
}

/// Repetitions of each in-process stack replay (the median is kept).
const STACK_REPS: usize = 3;
/// End-to-end iterations on the daemons in the traced run.
const E2E_REPS: u64 = 3;

/// The traced run; see the module docs.
pub fn traced_run(
    w: &Workload,
    env: &Env,
    inputs: &Inputs,
    replay: &Replay,
    args: &Args,
) -> Result<RunOutput, String> {
    let mut tally = Tally::default();
    let closed_events = &inputs.trace.events[..w.closed_events];
    let frames = &replay.closed;
    let n = closed_events.len() as f64;
    let kind = PartitionerKind::parse(&w.partitioner)?;
    let map = kind.build(w.shards, inputs.catalog.len());
    let (split, queries, subqueries) =
        split_frames(map.as_ref(), &inputs.catalog, closed_events, w.closed_batch);

    // End to end on the daemons, untraced: the figure the layers must
    // add up to, plus the open-loop generator's own health.
    let extras = Extras {
        replays: 0,
        setups: 0,
    };
    let kept = iterate(w, env, replay, Duration::ZERO, E2E_REPS, extras, &mut tally)?;
    let kinds: Vec<bool> = replay.open.iter().map(Event::is_query).collect();
    let mut latency = stats::OpenLatency::default();
    for it in &kept {
        latency.add(&kinds, &it.open.latency_ns);
    }
    let per_it = |f: &dyn Fn(&Iteration) -> f64| kept.iter().map(f).collect::<Vec<f64>>();
    let e2e = stats::median(&per_it(&|it| it.closed.elapsed.as_nanos() as f64));
    let late_p99 = per_it(&|it| it.late_p99_ns as f64);
    let backlog_max = kept.iter().map(|it| it.open.backlog_max).max().unwrap_or(0);

    let mut spans = Spans::new();
    let streams = shard_streams(&split, w.shards);
    let mut eng = engine_layer(
        w,
        env.policy_seed,
        map.as_ref(),
        &inputs.catalog,
        &streams,
        &mut spans,
    )?;
    let shard = shard_layer(
        w,
        env.policy_seed,
        map.as_ref(),
        &inputs.catalog,
        &split,
        &mut spans,
    );
    let codec = codec_layer(frames, &split, &mut spans)?;
    let s3 = median_stack(STACK_REPS, || {
        server_stack(w, env.policy_seed, &inputs.catalog, frames)
    })?;
    let s4 = median_stack(STACK_REPS, || {
        cluster_stack(w, env.policy_seed, &inputs.catalog, frames, 0)
    })?;
    let s5 = median_stack(STACK_REPS, || {
        cluster_stack(w, env.policy_seed, &inputs.catalog, frames, 1)
    })?;
    // A wrong or missing reply in any layer's replay fails the run.
    for (step, run) in [("S3", &s3), ("S4", &s4), ("S5", &s5)] {
        tally.attempted += run.closed.events;
        if run.closed.failed > 0 {
            tally.failed += run.closed.events;
            tally.gate_failures.push(format!(
                "{step}: {} replies missing or of the wrong type",
                run.closed.failed
            ));
        }
    }
    tally.attempted += 2 * streams.iter().map(|s| s.len() as u64).sum::<u64>();
    if shard.failed > 0 {
        tally.failed += shard.failed;
        tally
            .gate_failures
            .push(format!("S1: {} queries failed in run_batch", shard.failed));
    }
    // Client-side spans of the loopback replay: submit → reply, per frame.
    for (i, times) in s3.closed.frame_times.iter().enumerate() {
        if let Some((sent, done)) = times {
            spans.push(
                "server.frame",
                spans.at(*sent),
                spans.at(*done),
                ROOT,
                i as u64,
            );
        }
    }

    // The untraced engine pass: per-event spans would inflate it.
    let t0 = eng.plain_ns as f64;
    let t1 = shard.total_ns as f64;
    let tc = (codec.encode_ns + codec.decode_ns) as f64;
    let elapsed = |r: &StackRun| r.closed.elapsed.as_nanos() as f64;
    let (t3, t4, t5) = (elapsed(&s3), elapsed(&s4), elapsed(&s5));
    let level = match (w.topology, w.replicas) {
        (Topology::Standalone, _) => t3,
        (Topology::Cluster, 0) => t4,
        (Topology::Cluster, _) => t5,
    };
    // Wire: each frame's loopback round trip minus its shard busy time.
    let mut wire: Vec<u64> = s3
        .closed
        .frame_times
        .iter()
        .zip(&shard.frame_busy_ns)
        .filter_map(|(times, busy)| {
            times.map(|(sent, done)| ((done - sent).as_nanos() as u64).saturating_sub(*busy))
        })
        .collect();
    wire.sort_unstable();
    let mut query_ns = std::mem::take(&mut eng.query_ns);
    query_ns.sort_unstable();
    let lock_wait = merged_histogram(&s3.telemetry, "shard.lock_wait_ns.");
    let fanout = merged_histogram(&s4.telemetry, "router.fanout_ns.");
    let apply_s4 = merged_histogram(&s4.telemetry, "shard.apply_ns.").sum as f64;
    let apply_s5 = merged_histogram(&s5.telemetry, "shard.apply_ns.").sum as f64;
    let applied = s5.telemetry.counter("replica.applied_events").max(1) as f64;
    let frames_n = frames.len() as f64;
    let ledger = {
        let mut l = CostLedger::default();
        for e in &inputs.expected {
            l.absorb(e);
        }
        l
    };
    let shard_events = (query_ns.len() as u64 + eng.updates) as f64;
    let per_layer = vec![
        metric(
            "engine.query_ns",
            query_ns.iter().sum::<u64>() as f64 / query_ns.len().max(1) as f64,
            "ns",
        ),
        metric(
            "engine.update_ns",
            eng.update_ns as f64 / eng.updates.max(1) as f64,
            "ns",
        ),
        metric(
            "engine.query_p99_ns",
            stats::quantile_sorted(&query_ns, 0.99) as f64,
            "ns",
        ),
        metric("engine.events", shard_events, "count"),
        metric("flow.solves", eng.solves as f64, "count"),
        metric("flow.solve_ns", eng.solve_ns as f64, "ns"),
        metric("flow.solve_p99_ns", eng.solve_hist.p99() as f64, "ns"),
        metric("flow.graph_nodes_max", eng.graph_nodes_max as f64, "count"),
        metric(
            "um.local_answer_ratio",
            eng.ledger.local_answers as f64 / eng.solves.max(1) as f64,
            "ratio",
        ),
        metric("cache.hit_rate", ledger.hit_rate(), "ratio"),
        metric("cache.loads", ledger.loads as f64, "count"),
        metric("cache.evictions", ledger.evictions as f64, "count"),
        metric(
            "ledger.query_ship_gb",
            ledger.breakdown.query_ship.bytes() as f64 / 1e9,
            "GB",
        ),
        metric(
            "ledger.update_ship_gb",
            ledger.breakdown.update_ship.bytes() as f64 / 1e9,
            "GB",
        ),
        metric(
            "ledger.load_gb",
            ledger.breakdown.load.bytes() as f64 / 1e9,
            "GB",
        ),
        metric("shard.busy_ns", t1 / n, "ns"),
        metric("shard.self_ns", (t1 - t0) / n, "ns"),
        metric("shard.lock_wait_p99_ns", lock_wait.p99() as f64, "ns"),
        metric(
            "partition.subqueries_per_query",
            subqueries as f64 / queries.max(1) as f64,
            "ratio",
        ),
        metric("codec.encode_ns", codec.encode_ns as f64 / n, "ns"),
        metric("codec.decode_ns", codec.decode_ns as f64 / n, "ns"),
        metric("codec.bytes_per_event", codec.bytes as f64 / n, "bytes"),
        metric(
            "wire.rtt_p50_ns",
            stats::quantile_sorted(&wire, 0.5) as f64,
            "ns",
        ),
        metric(
            "wire.rtt_p99_ns",
            stats::quantile_sorted(&wire, 0.99) as f64,
            "ns",
        ),
        metric(
            "conn.frames_per_read",
            hist_mean(&s3.telemetry, "conn.frames_per_read"),
            "ratio",
        ),
        metric(
            "reactor.frames_per_wakeup",
            hist_mean(&s3.telemetry, "reactor.frames_per_wakeup"),
            "ratio",
        ),
        metric(
            "conn.flushes_per_frame",
            s3.telemetry.counter("conn.flushes") as f64
                / s3.telemetry.counter("conn.frames_in").max(1) as f64,
            "ratio",
        ),
        metric(
            "client.submit_ns",
            s3.closed.submit_ns as f64 / frames_n,
            "ns",
        ),
        metric(
            "client.wait_ns",
            (t3 - s3.closed.submit_ns as f64) / frames_n,
            "ns",
        ),
        metric("router.hop_ns", (t4 - t3) / n, "ns"),
        metric("router.fanout_p99_ns", fanout.p99() as f64, "ns"),
        metric(
            "router.mux_frames_per_flush",
            hist_mean(&s4.telemetry, "router.mux_frames_per_flush"),
            "ratio",
        ),
        metric("replica.ack_wait_ns", (t5 - t4) / n, "ns"),
        metric(
            "replica.shipped_events",
            s5.telemetry.counter("replica.shipped_events") as f64,
            "count",
        ),
        metric("replica.lag_events_max", s5.lag_max as f64, "count"),
        metric(
            "replica.backup_apply_ns",
            (apply_s5 - apply_s4) / applied,
            "ns",
        ),
        metric(
            "e2e.query_p90_us",
            stats::median_us(&latency.query_p90),
            "us",
        ),
        metric(
            "e2e.update_p90_us",
            stats::median_us(&latency.update_p90),
            "us",
        ),
        metric(
            "e2e.query_p99_us",
            stats::median_us(&latency.query_p99),
            "us",
        ),
        metric(
            "e2e.update_p99_us",
            stats::median_us(&latency.update_p99),
            "us",
        ),
        metric("loadgen.late_p99_us", stats::median(&late_p99) / 1e3, "us"),
        metric("loadgen.backlog_max", backlog_max as f64, "count"),
        metric("residual_share", (e2e - level) / e2e, "ratio"),
        metric(
            "tracing_overhead_share",
            (eng.total_ns as f64 - eng.plain_ns as f64) / eng.plain_ns.max(1) as f64,
            "ratio",
        ),
    ];

    // The budget: per client event, each layer's cost and its share of
    // the end-to-end closed-loop time on the daemons.
    let budget = [
        ("engine (T0)", t0),
        ("  of which flow solves", eng.solve_ns as f64),
        ("shard self (T1-T0)", t1 - t0),
        ("codec (Tc)", tc),
        ("wire (T3-T1-Tc)", t3 - t1 - tc),
        ("router hop (T4-T3)", t4 - t3),
        ("replica ack wait (T5-T4)", t5 - t4),
        ("in-process total at this deployment", level),
        ("end to end on the daemons", e2e),
        ("residual (e2e - in-process total)", e2e - level),
    ];
    println!(
        "layer budget for {} ({} events, {} frames), ns per event and share of e2e:",
        w.name, n, frames_n
    );
    for (name, ns) in budget {
        println!(
            "  {name:38} {:>10.1} ns/event {:>7.1}%",
            ns / n,
            100.0 * ns / e2e
        );
    }
    println!(
        "  server busy share of flow solves: {:.1}% of shard busy",
        100.0 * eng.solve_ns as f64 / t1.max(1.0)
    );

    let span_path = args
        .run_dir
        .join(format!("spans-{}-seed{}.tsv", w.name, args.seed));
    spans
        .write_tsv(&span_path, SPAN_SAMPLE)
        .map_err(|e| format!("span file: {e}"))?;
    let summary = spans
        .summary()
        .into_iter()
        .map(|(name, count, total, own)| {
            (
                name.to_string(),
                Value::Object(vec![
                    ("count".into(), Value::UInt(count)),
                    ("total_ns".into(), Value::UInt(total)),
                    ("self_ns".into(), Value::UInt(own)),
                ]),
            )
        })
        .collect();
    let detail = vec![
        ("workload".into(), Value::String(w.name.clone())),
        ("seed".into(), Value::UInt(args.seed)),
        ("closed_events".into(), Value::UInt(w.closed_events as u64)),
        ("frames".into(), Value::UInt(frames.len() as u64)),
        (
            "span_file".into(),
            Value::String(span_path.display().to_string()),
        ),
        ("spans".into(), Value::Object(summary)),
        (
            "budget_ns_per_event".into(),
            Value::Object(
                budget
                    .iter()
                    .map(|(k, v)| (k.trim().to_string(), Value::Float(v / n)))
                    .collect(),
            ),
        ),
    ];
    Ok((per_layer, tally, detail))
}
