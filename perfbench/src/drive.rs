//! The load generator: one connection per phase, at most two threads.
//!
//! * Closed loop — pipelined frames (`closed_batch` events per frame,
//!   `closed_window` frames in flight); a frame goes out only when the
//!   window has room.
//! * Open loop — every event its own tagged frame, sent on a seeded
//!   Poisson schedule at a fixed offered rate by a sender thread while a
//!   receiver thread matches replies. Latency runs from each event's
//!   *scheduled* send time, so a stall is charged to every event it
//!   delays.
//!
//! Every reply is checked for the expected type; a wrong or missing
//! reply is counted here, and the run's gate fails on it.

use delta_server::protocol::append_frame_with;
use delta_server::protocol::{read_frame, read_frame_into, write_frame};
use delta_server::{BatchItem, BatchReply, DeltaClient, Request, Response};
use delta_workload::Event;
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the receiver waits for a reply before the rest count as
/// timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// A request the closed loop sends, built before the clock starts.
pub struct Frame {
    pub request: Request,
    /// Event kinds in item order (`true` = query).
    pub kinds: Vec<bool>,
}

/// Packs `events` into the closed loop's frames.
pub fn frames(events: &[Event], batch: usize) -> Vec<Frame> {
    events
        .chunks(batch)
        .map(|chunk| {
            let kinds = chunk.iter().map(Event::is_query).collect();
            let request = if batch == 1 {
                single_request(&chunk[0])
            } else {
                Request::Batch(
                    chunk
                        .iter()
                        .map(|e| match e {
                            Event::Query(q) => BatchItem::Query(q.clone()),
                            Event::Update(u) => BatchItem::Update(*u),
                        })
                        .collect(),
                )
            };
            Frame { request, kinds }
        })
        .collect()
}

pub fn single_request(e: &Event) -> Request {
    match e {
        Event::Query(q) => Request::Query(q.clone()),
        Event::Update(u) => Request::Update(*u),
    }
}

/// Failed items in one reply: every item whose reply is missing, an
/// error, or of the wrong kind.
pub fn check_reply(kinds: &[bool], response: &Response) -> u64 {
    match (kinds, response) {
        ([true], Response::QueryOk { .. }) | ([false], Response::UpdateOk { .. }) => 0,
        (_, Response::BatchOk(replies)) if replies.len() == kinds.len() => kinds
            .iter()
            .zip(replies)
            .filter(|(query, r)| {
                !matches!(
                    (query, r),
                    (true, BatchReply::Query { .. }) | (false, BatchReply::Update { .. })
                )
            })
            .count()
            as u64,
        _ => kinds.len() as u64,
    }
}

/// What a closed-loop replay observed.
pub struct ClosedResult {
    pub elapsed: Duration,
    pub events: u64,
    pub failed: u64,
    /// Per frame, when it was submitted and when its reply was read
    /// (recorded only for a timed replay).
    pub frame_times: Vec<Option<(Instant, Instant)>>,
    /// Time spent inside `submit` (encode, buffer, and any wait for a
    /// window slot).
    pub submit_ns: u64,
}

/// Replays `frames` over one pipelined connection.
pub fn closed_loop(
    addr: SocketAddr,
    frames: &[Frame],
    window: usize,
    timed: bool,
) -> Result<ClosedResult, String> {
    let mut client = DeltaClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // The connection is set-up, not load: the clock starts once the
    // server has accepted it and answered a Hello.
    client.hello(0).map_err(|e| format!("hello: {e}"))?;
    let mut pipe = client.pipelined(window);
    let mut pending: HashMap<u64, usize> = HashMap::with_capacity(window * 2);
    let mut sent_at: Vec<Option<Instant>> = if timed {
        vec![None; frames.len()]
    } else {
        Vec::new()
    };
    let mut frame_times = vec![None; sent_at.len()];
    let mut failed = 0u64;
    let mut submit_ns = 0u64;
    let events: u64 = frames.iter().map(|f| f.kinds.len() as u64).sum();
    let t0 = Instant::now();
    let mut reap = |pairs: Vec<(u64, Response)>,
                    pending: &mut HashMap<u64, usize>,
                    sent_at: &mut Vec<Option<Instant>>| {
        for (corr, response) in pairs {
            match pending.remove(&corr) {
                Some(i) => {
                    failed += check_reply(&frames[i].kinds, &response);
                    if let Some(t0) = sent_at.get_mut(i).and_then(Option::take) {
                        frame_times[i] = Some((t0, Instant::now()));
                    }
                }
                None => failed += 1,
            }
        }
    };
    for (i, frame) in frames.iter().enumerate() {
        let ts = Instant::now();
        let corr = pipe
            .submit(&frame.request)
            .map_err(|e| format!("submit: {e}"))?;
        submit_ns += ts.elapsed().as_nanos() as u64;
        pending.insert(corr, i);
        if timed {
            sent_at[i] = Some(ts);
        }
        reap(pipe.completed(), &mut pending, &mut sent_at);
    }
    let rest = pipe.drain().map_err(|e| format!("drain: {e}"))?;
    reap(rest, &mut pending, &mut sent_at);
    let elapsed = t0.elapsed();
    // Frames that never got a reply are failed items.
    for i in pending.into_values() {
        failed += frames[i].kinds.len() as u64;
    }
    Ok(ClosedResult {
        elapsed,
        events,
        failed,
        frame_times,
        submit_ns,
    })
}

/// Splitmix64: the open loop's seeded schedule.
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Scheduled send offsets (ns from the start) of `n` Poisson arrivals.
pub fn schedule(n: usize, rate_eps: f64, seed: u64) -> Vec<u64> {
    let mut rng = Rng(seed ^ 0x0DE1_7A5C);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() / rate_eps * 1e9;
            t as u64
        })
        .collect()
}

/// What an open-loop phase observed.
pub struct OpenResult {
    /// Scheduled-send → reply, per event; `None` for a failed or
    /// timed-out event.
    pub latency_ns: Vec<Option<u64>>,
    pub failed: u64,
    pub timed_out: u64,
    /// How late each event left against its schedule.
    pub late_ns: Vec<u64>,
    /// Most events sent but not yet answered at any send.
    pub backlog_max: u64,
}

/// Sends `events` one tagged frame each at the scheduled offsets.
pub fn open_loop(addr: SocketAddr, events: &[Event], sched: &[u64]) -> Result<OpenResult, String> {
    let n = events.len();
    // Pre-encode every frame so the sender only writes bytes.
    let mut wire = Vec::new();
    let mut ends = Vec::with_capacity(n);
    for (i, e) in events.iter().enumerate() {
        let tagged = Request::Tagged {
            corr: i as u64,
            inner: Box::new(single_request(e)),
        };
        append_frame_with(&mut wire, |buf| tagged.encode_into(buf))
            .map_err(|e| format!("encode: {e}"))?;
        ends.push(wire.len());
    }
    let kinds: Vec<bool> = events.iter().map(Event::is_query).collect();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    // Set-up, not load: the schedule starts once the server has accepted
    // the connection and answered a Hello.
    let hello = Request::Hello {
        version: delta_server::protocol::PROTOCOL_VERSION,
        epoch: 0,
    };
    write_frame(&mut stream, &hello.encode()).map_err(|e| format!("hello: {e}"))?;
    match Response::decode(&read_frame(&mut stream).map_err(|e| format!("hello: {e}"))?) {
        Ok(Response::HelloOk(_)) => {}
        other => return Err(format!("hello answered {other:?}")),
    }
    let reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    reader
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    let received = Arc::new(AtomicU64::new(0));
    let start = Instant::now() + Duration::from_millis(2);

    let receiver = {
        let received = Arc::clone(&received);
        std::thread::spawn(move || {
            let mut reader = BufReader::with_capacity(1 << 16, reader);
            let mut payload = Vec::new();
            let mut done: Vec<Option<u64>> = vec![None; n];
            let mut failed = 0u64;
            let mut got = 0usize;
            while got < n {
                if read_frame_into(&mut reader, &mut payload).is_err() {
                    break;
                }
                let at = start.elapsed().as_nanos() as u64;
                got += 1;
                received.fetch_add(1, Ordering::Release);
                match Response::decode(&payload) {
                    Ok(Response::Tagged { corr, inner })
                        if (corr as usize) < n && done[corr as usize].is_none() =>
                    {
                        if check_reply(&kinds[corr as usize..corr as usize + 1], &inner) == 0 {
                            done[corr as usize] = Some(at);
                        } else {
                            failed += 1;
                        }
                    }
                    _ => failed += 1,
                }
            }
            (done, failed)
        })
    };

    let mut writer = stream;
    let mut late_ns = vec![0u64; n];
    let mut backlog_max = 0u64;
    let mut next = 0usize;
    let mut send_error = None;
    while next < n {
        let now = start.elapsed().as_nanos() as u64;
        if sched[next] > now {
            // Sleep, never spin: on a small machine a spinning sender
            // takes a core from the system under test. The timer's
            // overshoot shows up as lateness (and in the latencies).
            std::thread::sleep(Duration::from_nanos(sched[next] - now));
            continue;
        }
        // Everything due by now leaves in one write.
        let mut last = next;
        while last + 1 < n && sched[last + 1] <= now {
            last += 1;
        }
        let from = if next == 0 { 0 } else { ends[next - 1] };
        if let Err(e) = writer.write_all(&wire[from..ends[last]]) {
            send_error = Some(e.to_string());
            break;
        }
        let sent_at = start.elapsed().as_nanos() as u64;
        for i in next..=last {
            late_ns[i] = sent_at - sched[i];
        }
        next = last + 1;
        let backlog = next as u64 - received.load(Ordering::Acquire);
        backlog_max = backlog_max.max(backlog);
    }
    let (done, failed) = receiver
        .join()
        .map_err(|_| "receiver panicked".to_string())?;
    if let Some(e) = send_error {
        return Err(format!("send: {e}"));
    }
    let timed_out = (done.iter().filter(|d| d.is_none()).count() as u64).saturating_sub(failed);
    let latency_ns = done
        .iter()
        .zip(sched)
        .map(|(d, s)| d.map(|at| at.saturating_sub(*s)))
        .collect();
    Ok(OpenResult {
        latency_ns,
        failed,
        timed_out,
        late_ns,
        backlog_max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reply_of_the_wrong_kind_is_a_failed_item() {
        let query = Response::QueryOk {
            shards_touched: 1,
            local_answers: 0,
            shipped: 1,
        };
        let update = Response::UpdateOk {
            shard: 0,
            version: 1,
        };
        assert_eq!(check_reply(&[true], &query), 0);
        assert_eq!(check_reply(&[false], &query), 1);
        assert_eq!(check_reply(&[true], &update), 1);
        let batch = Response::BatchOk(vec![
            BatchReply::Query {
                shards_touched: 1,
                local_answers: 1,
                shipped: 0,
            },
            BatchReply::Update {
                shard: 0,
                version: 2,
            },
        ]);
        assert_eq!(check_reply(&[true, false], &batch), 0);
        assert_eq!(check_reply(&[false, false], &batch), 1);
        assert_eq!(
            check_reply(&[true, false, true], &batch),
            3,
            "a short batch fails every item"
        );
    }
}
