//! The host's CPU time stolen by the hypervisor, from `/proc/stat`.
//!
//! On a shared host the hypervisor sometimes runs other guests on this
//! machine's CPUs. A phase of the run during which it did so measured the
//! host, not the system under test, whatever the program's speed: no
//! change to the program can make the hypervisor steal time.

/// Cumulative CPU time of all CPUs, in clock ticks.
#[derive(Clone, Copy, Debug)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

/// The current counters, or `None` where `/proc/stat` has no steal column.
pub fn cpu_times() -> Option<CpuTimes> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse(&stat)
}

fn parse(stat: &str) -> Option<CpuTimes> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    Some(CpuTimes {
        steal: *v.get(7)?,
        total: v.iter().take(8).sum(),
    })
}

/// Fewest clock ticks (all CPUs) a share is taken over: at 100 ticks per
/// second per CPU, one tick of 400 is a quarter of a percent.
const MIN_TICKS: u64 = 400;

/// Share of all CPU time between `a` and `b` that was stolen; `None` when
/// unknown or when the interval is too short to tell.
pub fn steal_share(a: Option<CpuTimes>, b: Option<CpuTimes>) -> Option<f64> {
    let (a, b) = (a?, b?);
    let ticks = b.total.checked_sub(a.total)?;
    (ticks >= MIN_TICKS).then(|| b.steal.saturating_sub(a.steal) as f64 / ticks as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_of_two_snapshots() {
        let a = parse("cpu  100 0 50 800 0 0 10 40 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n");
        let b = parse("cpu  150 0 60 1180 0 0 10 100 0 0\n");
        assert_eq!(steal_share(a, b), Some(60.0 / 500.0));
        assert_eq!(steal_share(b, a), None);
        let short = parse("cpu  150 0 60 880 0 0 10 100 0 0\n");
        assert_eq!(steal_share(a, short), None, "200 ticks are too few");
        assert!(parse("cpu  1 2 3\n").is_none());
        assert_eq!(steal_share(None, b), None);
    }
}
