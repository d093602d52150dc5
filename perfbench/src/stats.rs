//! Order statistics over recorded samples.

/// Nearest-rank quantile of an ascending slice (`q` in 0..=1).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Quantile of latency samples where a failed op (`None`) counts as
/// missing every limit: it sorts above any measured value.
pub fn latency_quantile(samples: &[Option<u64>], q: f64) -> u64 {
    let mut v: Vec<u64> = samples.iter().map(|s| s.unwrap_or(u64::MAX)).collect();
    v.sort_unstable();
    quantile_sorted(&v, q)
}

/// The quantile `q` of each consecutive full chunk of `chunk` samples
/// (a short remainder is dropped unless there is no full chunk).
pub fn chunk_quantiles(samples: &[Option<u64>], chunk: usize, q: f64) -> Vec<u64> {
    let chunk = chunk.max(1);
    let full = samples.len() / chunk;
    if full == 0 {
        return vec![latency_quantile(samples, q)];
    }
    samples
        .chunks_exact(chunk)
        .map(|c| latency_quantile(c, q))
        .collect()
}

/// Open-loop latencies of one run, folded chunk by chunk.
///
/// The p50 and p90 are taken per window of [`WINDOW_EVENTS`] consecutive
/// open-loop events, per kind (a window holds at least 100 events of a
/// kind, so its p90 has 10 samples beyond it), and the run reports the
/// median over every window of every iteration: a stall moves the few
/// windows it hits, not the median. The p99 needs 1000 samples per
/// chunk, so it is taken per 1000 consecutive events of one kind.
#[derive(Default)]
pub struct OpenLatency {
    pub query_p50: Vec<u64>,
    pub query_p90: Vec<u64>,
    pub query_p99: Vec<u64>,
    pub update_p50: Vec<u64>,
    pub update_p90: Vec<u64>,
    pub update_p99: Vec<u64>,
    pub query_samples: u64,
    pub update_samples: u64,
    pub query_pool: Vec<Option<u64>>,
    pub update_pool: Vec<Option<u64>>,
}

/// Consecutive open-loop events per p50/p90 window.
pub const WINDOW_EVENTS: usize = 1_000;
/// Samples of one kind per p99 chunk.
pub const P99_CHUNK: usize = 1_000;

impl OpenLatency {
    /// Folds one iteration: `is_query[i]` and `latency[i]` per open-loop
    /// event, in send order.
    pub fn add(&mut self, is_query: &[bool], latency: &[Option<u64>]) {
        let split = |range: std::ops::Range<usize>| {
            let (mut q, mut u) = (Vec::new(), Vec::new());
            for i in range {
                if is_query[i] {
                    q.push(latency[i])
                } else {
                    u.push(latency[i])
                }
            }
            (q, u)
        };
        for start in (0..latency.len()).step_by(WINDOW_EVENTS) {
            let (q, u) = split(start..(start + WINDOW_EVENTS).min(latency.len()));
            for (v, p50, p90) in [
                (&q, &mut self.query_p50, &mut self.query_p90),
                (&u, &mut self.update_p50, &mut self.update_p90),
            ] {
                if v.len() >= 100 {
                    p50.push(latency_quantile(v, 0.5));
                    p90.push(latency_quantile(v, 0.9));
                }
            }
        }
        let (q, u) = split(0..latency.len());
        self.query_p99.extend(chunk_quantiles(&q, P99_CHUNK, 0.99));
        self.update_p99.extend(chunk_quantiles(&u, P99_CHUNK, 0.99));
        self.query_samples += q.len() as u64;
        self.update_samples += u.len() as u64;
        self.query_pool.extend(q);
        self.update_pool.extend(u);
    }
}

/// Median of whole numbers, in thousandths (ns → us).
pub fn median_us(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64 / 1e3).collect::<Vec<_>>())
}

/// Median of floats (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_ops_sort_above_every_latency() {
        let mut s: Vec<Option<u64>> = (1..=99).map(Some).collect();
        s.push(None);
        assert_eq!(latency_quantile(&s, 0.5), 50);
        assert_eq!(latency_quantile(&s, 1.0), u64::MAX);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        let c: Vec<Option<u64>> = (1..=250).map(Some).collect();
        assert_eq!(chunk_quantiles(&c, 100, 1.0), vec![100, 200]);
    }
}
