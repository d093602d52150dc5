//! The correctness gate: after every iteration the deployment's
//! per-shard ledgers must be byte-identical to `sim::simulate` over
//! `shard_trace` of the same trace.

use delta_core::CostLedger;
use delta_server::StatsSnapshot;

/// Describes every way `stats` differs from `expected` (empty = pass).
pub fn ledger_mismatches(stats: &StatsSnapshot, expected: &[CostLedger]) -> Vec<String> {
    let mut out = Vec::new();
    if stats.shards.len() != expected.len() {
        out.push(format!(
            "{} shards reported, {} expected",
            stats.shards.len(),
            expected.len()
        ));
    }
    for shard in &stats.shards {
        match expected.get(shard.shard as usize) {
            Some(want) if *want == shard.metrics.ledger => {}
            Some(want) => out.push(format!(
                "shard {}: ledger {:?} != expected {:?}",
                shard.shard, shard.metrics.ledger, want
            )),
            None => out.push(format!("unexpected shard {}", shard.shard)),
        }
    }
    out
}

/// WAN bytes the ledgers charged (query ship + update ship + load), GB.
pub fn network_cost_gb(stats: &StatsSnapshot) -> f64 {
    stats.total_ledger().total().bytes() as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_server::ShardStats;

    fn snapshot(ledgers: &[CostLedger]) -> StatsSnapshot {
        StatsSnapshot {
            shards: ledgers
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    let mut s = ShardStats {
                        shard: i as u16,
                        ..ShardStats::default()
                    };
                    s.metrics.ledger = l.clone();
                    s
                })
                .collect(),
        }
    }

    #[test]
    fn gate_trips_on_a_corrupted_expected_ledger() {
        let mut a = CostLedger::default();
        a.breakdown.load.0 = 1_000;
        a.loads = 1;
        let stats = snapshot(&[a.clone(), CostLedger::default()]);
        assert!(ledger_mismatches(&stats, &[a.clone(), CostLedger::default()]).is_empty());
        let mut corrupted = a.clone();
        corrupted.breakdown.load.0 += 1;
        assert_eq!(
            ledger_mismatches(&stats, &[corrupted, CostLedger::default()]).len(),
            1
        );
        assert!(
            !ledger_mismatches(&stats, &[a]).is_empty(),
            "a shard count mismatch trips too"
        );
    }
}
