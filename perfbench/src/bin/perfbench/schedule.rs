//! Seeded open-loop arrival schedules, the operation mix, and the rate
//! ladder behind `capacity_qps` on the serving workloads.
//!
//! Everything here is decided before the first request is sent: the
//! schedule is a list of absolute due times (Poisson arrivals, exponential
//! gaps) with the operation each arrival carries, drawn from the run's seed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng as _, SeedableRng};

/// The benchmark's only source of randomness (the workspace's seeded
/// generator), so a seed fixes every input.
pub type Rng = StdRng;

pub fn seeded(seed: u64) -> Rng {
    StdRng::seed_from_u64(seed)
}

/// An exponential gap with mean `1 / rate`, in seconds.
pub fn exp_gap(rng: &mut Rng, rate: f64) -> f64 {
    -(1.0 - rng.random::<f64>()).ln() / rate
}

/// A seeded permutation of `0..n`.
pub fn permutation(rng: &mut Rng, n: u32) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n).collect();
    v.shuffle(rng);
    v
}

/// What one arrival asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Answer held-out query number `.0`.
    Query(u32),
    /// Insert corpus row `.0`.
    Insert(u32),
    /// Delete external id `.0`.
    Delete(u32),
}

/// One scheduled request: its absolute due time (ns from the phase start)
/// and its operation.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub due_ns: u64,
    pub op: Op,
}

/// Operands for the mixed workload, consumed in order across every phase of
/// a run: queries cycle through `query_order` (so every query is asked
/// equally often), and no row is inserted twice or id deleted twice.
pub struct OpSource {
    query_order: Vec<u32>,
    next_query: usize,
    /// Shares of arrivals that insert and delete; the rest are queries.
    insert_share: f64,
    delete_share: f64,
    insert_rows: Vec<u32>,
    delete_ids: Vec<u32>,
}

impl OpSource {
    /// A query-only source.
    pub fn queries(query_order: Vec<u32>) -> Self {
        Self::mixed(query_order, 0.0, 0.0, Vec::new(), Vec::new())
    }

    /// A mixed source: `insert_rows` and `delete_ids` are handed out front
    /// to back. Once either runs dry its share falls back to queries.
    pub fn mixed(
        query_order: Vec<u32>,
        insert_share: f64,
        delete_share: f64,
        mut insert_rows: Vec<u32>,
        mut delete_ids: Vec<u32>,
    ) -> Self {
        insert_rows.reverse();
        delete_ids.reverse();
        Self {
            query_order,
            next_query: 0,
            insert_share,
            delete_share,
            insert_rows,
            delete_ids,
        }
    }

    /// The next operation of the mix.
    pub fn draw(&mut self, rng: &mut Rng) -> Op {
        let u = rng.random::<f64>();
        let write = if u < self.insert_share {
            self.insert_rows.pop().map(Op::Insert)
        } else if u < self.insert_share + self.delete_share {
            self.delete_ids.pop().map(Op::Delete)
        } else {
            None
        };
        write.unwrap_or_else(|| {
            let q = self.query_order[self.next_query % self.query_order.len()];
            self.next_query += 1;
            Op::Query(q)
        })
    }
}

/// A Poisson schedule at `rate` arrivals per second lasting `seconds`.
pub fn poisson(rng: &mut Rng, rate: f64, seconds: f64, source: &mut OpSource) -> Vec<Arrival> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = exp_gap(rng, rate);
    while t < seconds {
        out.push(Arrival {
            due_ns: (t * 1e9) as u64,
            op: source.draw(rng),
        });
        t += exp_gap(rng, rate);
    }
    out
}

/// The fixed absolute rates of the capacity ladder: geometric from
/// [`LADDER_FIRST_QPS`] in steps of [`LADDER_STEP`].
pub const LADDER_FIRST_QPS: f64 = 2000.0;
pub const LADDER_STEP: f64 = 1.04;
pub const LADDER_RUNGS: usize = 89; // up to ~64k qps

pub fn ladder_rate(rung: usize) -> f64 {
    LADDER_FIRST_QPS * LADDER_STEP.powi(rung as i32)
}

/// The service-level objective a rung must meet: at least 99 % of the
/// requests sent finish within [`SLO_LIMIT_US`] of their due time.
pub const SLO_LIMIT_US: f64 = 1000.0;
pub const SLO_SHARE: f64 = 0.99;

/// Share of requests sent that finished within the limit. `latencies_us`
/// holds one entry per request sent: its latency from the due time, or
/// `None` when it failed (rejected, expired, errored), which counts as a
/// miss.
pub fn share_within(latencies_us: &[Option<f64>]) -> f64 {
    let within = latencies_us
        .iter()
        .filter(|l| l.is_some_and(|us| us <= SLO_LIMIT_US))
        .count();
    within as f64 / latencies_us.len().max(1) as f64
}

/// Whether a rung passes: it is played as several equal sub-windows, and
/// the upper quartile of them must meet the objective (two of five).
/// Stalls of the machine then spoil sub-windows, not the rung, while a rate
/// past the server's knee fails every sub-window.
pub fn rung_passes(windows: &[Vec<Option<f64>>]) -> bool {
    let shares: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| share_within(w))
        .collect();
    crate::stats::percentile(&crate::stats::sorted(&shares), 75.0).is_some_and(|s| s >= SLO_SHARE)
}

/// Binary search for the highest passing rung in `0..rungs`, assuming
/// passing is monotone (a server that meets the SLO at a rate meets it at
/// every lower rate). `None` when even rung 0 fails.
pub fn highest_passing(rungs: usize, mut passes: impl FnMut(usize) -> bool) -> Option<usize> {
    // Invariant: every rung <= lo passes (lo = -1: none known), every rung
    // >= hi fails (hi = rungs: none known).
    let (mut lo, mut hi) = (-1i64, rungs as i64);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if passes(mid as usize) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo >= 0).then_some(lo as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_has_the_requested_mean_rate() {
        let mut rng = seeded(11);
        let mut src = OpSource::queries((0..100).collect());
        let arrivals = poisson(&mut rng, 5000.0, 20.0, &mut src);
        let rate = arrivals.len() as f64 / 20.0;
        assert!((rate - 5000.0).abs() / 5000.0 < 0.02, "rate {rate}");
        assert!(arrivals.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    }

    #[test]
    fn gaps_are_exponential() {
        let mut rng = seeded(3);
        let rate = 2000.0;
        let gaps: Vec<f64> = (0..200_000).map(|_| exp_gap(&mut rng, rate)).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        // Mean 1/rate, coefficient of variation 1, and the memoryless tail
        // P(gap > mean) = e^-1.
        assert!((mean * rate - 1.0).abs() < 0.01, "mean {mean}");
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.02,
            "cv {}",
            var.sqrt() / mean
        );
        let over = gaps.iter().filter(|&&g| g > 1.0 / rate).count() as f64 / gaps.len() as f64;
        assert!((over - (-1.0f64).exp()).abs() < 0.005, "tail {over}");
    }

    #[test]
    fn same_seed_same_schedule() {
        let make = |seed| {
            let mut rng = seeded(seed);
            let mut src = OpSource::mixed(
                (0..50).collect(),
                0.02,
                0.01,
                (0..100).collect(),
                (0..100).collect(),
            );
            poisson(&mut rng, 1000.0, 1.0, &mut src)
                .iter()
                .map(|a| (a.due_ns, a.op))
                .collect::<Vec<_>>()
        };
        assert_eq!(make(5), make(5));
        assert_ne!(make(5), make(6));
    }

    #[test]
    fn mix_shares_and_operands_are_used_once() {
        let mut rng = seeded(9);
        let mut src = OpSource::mixed(
            (0..10).collect(),
            0.02,
            0.01,
            (100..10_100).collect(),
            (0..10_000).collect(),
        );
        let arrivals = poisson(&mut rng, 10_000.0, 10.0, &mut src);
        let n = arrivals.len() as f64;
        let inserts: Vec<u32> = arrivals
            .iter()
            .filter_map(|a| {
                if let Op::Insert(r) = a.op {
                    Some(r)
                } else {
                    None
                }
            })
            .collect();
        let deletes = arrivals
            .iter()
            .filter(|a| matches!(a.op, Op::Delete(_)))
            .count() as f64;
        assert!((inserts.len() as f64 / n - 0.02).abs() < 0.003);
        assert!((deletes / n - 0.01).abs() < 0.002);
        // Rows are handed out in order, each once.
        assert!(inserts.windows(2).all(|w| w[1] == w[0] + 1));
        assert_eq!(inserts[0], 100);
    }

    #[test]
    fn queries_cycle_through_their_order() {
        let mut rng = seeded(2);
        let mut src = OpSource::queries(vec![3, 1, 2]);
        let ops: Vec<Op> = (0..7).map(|_| src.draw(&mut rng)).collect();
        let want = [3, 1, 2, 3, 1, 2, 3].map(Op::Query);
        assert_eq!(ops, want);
    }

    #[test]
    fn exhausted_operands_fall_back_to_queries() {
        let mut rng = seeded(1);
        let mut src = OpSource::mixed((0..10).collect(), 0.5, 0.5, vec![7], vec![]);
        let arrivals = poisson(&mut rng, 1000.0, 1.0, &mut src);
        let inserts = arrivals
            .iter()
            .filter(|a| matches!(a.op, Op::Insert(_)))
            .count();
        assert_eq!(inserts, 1);
        assert!(arrivals.iter().all(|a| !matches!(a.op, Op::Delete(_))));
    }

    #[test]
    fn rung_rule_counts_failures_as_misses() {
        let ok = |n: usize| vec![Some(100.0); n];
        // 1000 sent, 10 late: exactly 99 % within the limit, passes.
        let mut lat = ok(990);
        lat.extend(vec![Some(1500.0); 10]);
        assert!(share_within(&lat) >= SLO_SHARE);
        assert!(rung_passes(&[lat.clone()]));
        // One more late request fails it.
        lat[0] = Some(1000.1);
        assert!(!rung_passes(&[lat]));
        // A failed request is a miss even though it has no latency.
        let mut lat = ok(990);
        lat.extend(vec![None; 11]);
        assert!(!rung_passes(&[lat]));
        // The limit itself is within; nothing sent never passes.
        assert!(rung_passes(&[vec![Some(SLO_LIMIT_US)]]));
        assert!(!rung_passes(&[]));
        assert!(!rung_passes(&[vec![]]));
    }

    #[test]
    fn rung_passes_on_its_quietest_sub_windows() {
        let good = vec![Some(100.0); 100];
        let stalled = vec![Some(5000.0); 100];
        // Two good sub-windows of five pass the rung; one does not.
        let w = vec![
            good.clone(),
            stalled.clone(),
            good.clone(),
            stalled.clone(),
            stalled.clone(),
        ];
        assert!(rung_passes(&w));
        let w = vec![
            stalled.clone(),
            stalled.clone(),
            good,
            stalled.clone(),
            stalled,
        ];
        assert!(!rung_passes(&w));
    }

    #[test]
    fn binary_search_finds_the_knee() {
        for knee in [0usize, 1, 57, 87, 88] {
            let mut probes = 0;
            let got = highest_passing(LADDER_RUNGS, |r| {
                probes += 1;
                r <= knee
            });
            assert_eq!(got, Some(knee));
            assert!(probes <= 7, "{probes} probes");
        }
        assert_eq!(highest_passing(LADDER_RUNGS, |_| false), None);
        assert!((ladder_rate(0) - 2000.0).abs() < 1e-9);
        assert!(ladder_rate(LADDER_RUNGS - 1) > 60_000.0);
    }
}
