//! Microbatch partitioning across encoder pipelines (§4.1).
//!
//! With `m` encoder pipelines colocated per LLM pipeline and `N_mb`
//! microbatches per training step, the planner "enumerates possible ways to
//! partition these N_mb microbatches among the m encoder pipelines" — the
//! compositions of `N_mb` into `m` positive parts (e.g. 8 into 2 parts gives
//! the 7 options `[1,7]`, `[2,6]`, …, `[7,1]`).

use crate::error::PlanError;

/// Number of compositions of `n` into `m` positive parts: `C(n−1, m−1)`.
pub fn composition_count(n: u32, m: u32) -> u128 {
    if m == 0 || n < m {
        return 0;
    }
    binomial(u128::from(n - 1), u128::from(m - 1))
}

fn binomial(n: u128, k: u128) -> u128 {
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) / (i + 1);
    }
    acc
}

/// Iterator over all compositions of `n` into `m` positive parts, in
/// lexicographic order.
#[derive(Debug, Clone)]
pub struct Compositions {
    n: u32,
    m: u32,
    current: Option<Vec<u32>>,
}

impl Compositions {
    /// Creates the iterator. Errors when `m == 0` or `n < m` (no positive
    /// composition exists).
    pub fn new(n: u32, m: u32) -> Result<Compositions, PlanError> {
        if m == 0 {
            return Err(PlanError::BadPartition {
                reason: "m must be >= 1".into(),
            });
        }
        if n < m {
            return Err(PlanError::BadPartition {
                reason: format!("cannot split {n} microbatches into {m} positive parts"),
            });
        }
        // First composition: [1, 1, ..., n-m+1] reversed to lexicographic
        // smallest [1,...,1, n-m+1].
        let mut first = vec![1u32; m as usize];
        first[m as usize - 1] = n - m + 1;
        Ok(Compositions {
            n,
            m,
            current: Some(first),
        })
    }

    /// A balanced partition (parts differ by at most one), used as the
    /// default when enumeration is too expensive.
    pub fn balanced(n: u32, m: u32) -> Result<Vec<u32>, PlanError> {
        if m == 0 || n < m {
            return Err(PlanError::BadPartition {
                reason: format!("cannot split {n} into {m} positive parts"),
            });
        }
        let base = n / m;
        let extra = n % m;
        Ok((0..m).map(|i| base + u32::from(i < extra)).collect())
    }
}

impl Iterator for Compositions {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        let out = self.current.clone()?;
        // Advance: find the rightmost position (excluding the last) that can
        // be incremented by stealing from the tail.
        let m = self.m as usize;
        let cur = self.current.as_mut().unwrap();
        // Standard successor: scan from second-to-last position leftwards.
        let mut i = m.checked_sub(2);
        let mut advanced = false;
        while let Some(idx) = i {
            let tail_sum: u32 = cur[idx + 1..].iter().sum();
            if tail_sum > (m - idx - 1) as u32 {
                // Increment cur[idx], reset the tail to minimal values.
                cur[idx] += 1;
                let consumed: u32 = cur[..=idx].iter().sum();
                let remaining = self.n - consumed;
                let slots = (m - idx - 1) as u32;
                for c in &mut cur[idx + 1..m] {
                    *c = 1;
                }
                cur[m - 1] = remaining - (slots - 1);
                advanced = true;
                break;
            }
            i = idx.checked_sub(1);
        }
        if !advanced {
            self.current = None;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_eight_into_two() {
        // §4.1: "if there are 8 microbatches ... and m=2 ... 7 possible
        // partitioning options, such as [1,7], [2,6], ..., [7,1]".
        let all: Vec<Vec<u32>> = Compositions::new(8, 2).unwrap().collect();
        assert_eq!(all.len(), 7);
        assert_eq!(all.first().unwrap(), &vec![1, 7]);
        assert_eq!(all.last().unwrap(), &vec![7, 1]);
        assert_eq!(composition_count(8, 2), 7);
    }

    #[test]
    fn compositions_sum_to_n_and_are_positive() {
        for comp in Compositions::new(9, 3).unwrap() {
            assert_eq!(comp.iter().sum::<u32>(), 9);
            assert!(comp.iter().all(|&x| x >= 1));
        }
        let count = Compositions::new(9, 3).unwrap().count();
        assert_eq!(count as u128, composition_count(9, 3));
        assert_eq!(composition_count(9, 3), 28); // C(8,2)
    }

    #[test]
    fn compositions_are_unique() {
        let mut all: Vec<Vec<u32>> = Compositions::new(10, 4).unwrap().collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n);
        assert_eq!(n as u128, composition_count(10, 4));
    }

    #[test]
    fn singleton_partition() {
        let all: Vec<Vec<u32>> = Compositions::new(5, 1).unwrap().collect();
        assert_eq!(all, vec![vec![5]]);
    }

    #[test]
    fn invalid_partitions_rejected() {
        assert!(Compositions::new(2, 3).is_err());
        assert!(Compositions::new(5, 0).is_err());
        assert_eq!(composition_count(2, 3), 0);
    }

    #[test]
    fn balanced_partition_spreads_evenly() {
        assert_eq!(Compositions::balanced(16, 4).unwrap(), vec![4, 4, 4, 4]);
        assert_eq!(Compositions::balanced(10, 3).unwrap(), vec![4, 3, 3]);
        assert!(Compositions::balanced(2, 5).is_err());
    }

    #[test]
    fn strong_scaling_counts_shrink_with_fewer_microbatches() {
        // Table 7: runtime drops as microbatches drop (32 → 24 → 16) because
        // there are fewer partitioning options.
        let c32 = composition_count(32, 4);
        let c24 = composition_count(24, 4);
        let c16 = composition_count(16, 4);
        assert!(c32 > c24 && c24 > c16);
    }
}
