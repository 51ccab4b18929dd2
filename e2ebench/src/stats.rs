//! Sample summaries and answer hashing.

use mira_roofline::{Ceiling, MemLevel, Placement};

use crate::rng::Rng;

/// At least this many samples must lie beyond a reported tail
/// percentile; a percentile with fewer is not reported as valid.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of ascending `sorted`
/// samples, with the number of samples strictly beyond its rank.
pub fn percentile(sorted: &[f64], q: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let beyond = percentile_rank_beyond(sorted.len(), q);
    (sorted[sorted.len() - 1 - beyond], beyond)
}

/// The highest of the conventional percentiles (p99.9, p99, p90, p75,
/// p50) that has at least [`MIN_BEYOND`] samples beyond it.
pub fn highest_valid_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|&q| n >= 1 && percentile_rank_beyond(n, q) >= MIN_BEYOND)
}

/// The fewest samples whose percentile `q` has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn fewest_for(q: f64) -> usize {
    (1..)
        .find(|&n| percentile_rank_beyond(n, q) >= MIN_BEYOND)
        .expect("some sample count leaves MIN_BEYOND beyond q < 1")
}

/// Samples beyond the nearest rank of percentile `q` among `n` samples.
fn percentile_rank_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// A latency distribution summary.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Samples summarised (a uniform subsample when the source kept a
    /// reservoir).
    pub n: usize,
    /// Operations the samples stand for.
    pub total: u64,
    pub p50: f64,
    /// The requested tail percentile, and whether it has enough samples
    /// beyond it to be reported under the [`MIN_BEYOND`] rule.
    pub tail: f64,
    pub tail_q: f64,
    pub tail_valid: bool,
}

pub fn summarize(samples: &[f64], total: u64, tail_q: f64) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let (p50, _) = percentile(&s, 0.5);
    let (tail, beyond) = percentile(&s, tail_q);
    Summary {
        n: s.len(),
        total,
        p50,
        tail,
        tail_q,
        tail_valid: beyond >= MIN_BEYOND,
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 0.5).0
}

/// Fixed-size uniform sample of an unbounded stream (Vitter's algorithm
/// R). The buffer is filled up front (with a non-zero value, so its
/// pages are written rather than mapped zero pages), so memory use does
/// not depend on how many operations a run completes.
pub struct Reservoir {
    buf: Vec<f64>,
    seen: u64,
    rng: Rng,
}

impl Reservoir {
    pub fn new(capacity: usize, seed: u64) -> Reservoir {
        Reservoir {
            buf: vec![-1.0; capacity],
            seen: 0,
            rng: Rng::fork(seed, 0x5e5e),
        }
    }

    #[inline]
    pub fn push(&mut self, v: f64) {
        let cap = self.buf.len() as u64;
        if self.seen < cap {
            self.buf[self.seen as usize] = v;
        } else {
            let j = self.rng.next_u64() % (self.seen + 1);
            if j < cap {
                self.buf[j as usize] = v;
            }
        }
        self.seen += 1;
    }

    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn samples(&self) -> &[f64] {
        &self.buf[..(self.seen.min(self.buf.len() as u64) as usize)]
    }
}

/// FNV-1a, the repository's answer-hash convention.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    /// Binding roof plus the bit patterns of all four cycle bounds; a
    /// refusal hashes a marker byte.
    pub fn placement<E>(&mut self, a: &Result<Placement, E>) {
        match a {
            Ok(p) => {
                self.byte(ceiling_byte(p.binding));
                for v in [
                    p.compute_cycles,
                    p.mem_cycles[0],
                    p.mem_cycles[1],
                    p.mem_cycles[2],
                ] {
                    self.bytes(&v.to_bits().to_le_bytes());
                }
            }
            Err(_) => self.byte(0xff),
        }
    }
}

pub fn ceiling_byte(c: Ceiling) -> u8 {
    match c {
        Ceiling::Compute => 0,
        Ceiling::Mem(MemLevel::L1) => 1,
        Ceiling::Mem(MemLevel::L2) => 2,
        Ceiling::Mem(MemLevel::Dram) => 3,
    }
}

/// The same answer: both placements, equal bit for bit (binding roof
/// and all four bounds), or both refusals.
pub fn same_answer<E, F>(a: &Result<Placement, E>, b: &Result<Placement, F>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.binding == b.binding
                && a.compute_cycles.to_bits() == b.compute_cycles.to_bits()
                && (0..3).all(|l| a.mem_cycles[l].to_bits() == b.mem_cycles[l].to_bits())
        }
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), (50.0, 50));
        assert_eq!(percentile(&s, 0.9), (90.0, 10));
        assert_eq!(percentile(&s, 0.99), (99.0, 1));
        assert_eq!(percentile(&[7.0], 0.99), (7.0, 0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples has exactly 10 beyond it: valid
        assert!(summarize(&ramp(100), 100, 0.9).tail_valid);
        // p90 of 99 samples has 9 beyond it: not valid
        assert!(!summarize(&ramp(99), 99, 0.9).tail_valid);
        assert!(summarize(&ramp(1000), 1000, 0.99).tail_valid);
        assert!(!summarize(&ramp(999), 999, 0.99).tail_valid);
        assert_eq!(highest_valid_percentile(1000), Some(0.99));
        assert_eq!(highest_valid_percentile(999), Some(0.9));
        assert_eq!(highest_valid_percentile(100), Some(0.9));
        assert_eq!(highest_valid_percentile(40), Some(0.75));
        assert_eq!(highest_valid_percentile(20), Some(0.5));
        assert_eq!(highest_valid_percentile(19), None);
    }

    #[test]
    fn fewest_samples_for_a_valid_tail() {
        assert_eq!(fewest_for(0.9), 100);
        assert_eq!(fewest_for(0.99), 1000);
        assert_eq!(fewest_for(0.5), 20);
        for q in [0.5, 0.9, 0.99] {
            let n = fewest_for(q);
            assert!(summarize(&ramp(n), n as u64, q).tail_valid);
            assert!(!summarize(&ramp(n - 1), n as u64 - 1, q).tail_valid);
        }
    }

    #[test]
    fn summary_sorts_its_input() {
        let mut s = ramp(200);
        s.reverse();
        let sum = summarize(&s, 200, 0.9);
        assert_eq!(sum.p50, 100.0);
        assert_eq!(sum.tail, 180.0);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1000, 5);
        for i in 0..100_000 {
            r.push(i as f64);
        }
        assert_eq!(r.seen(), 100_000);
        assert_eq!(r.samples().len(), 1000);
        let m = median(r.samples());
        assert!((40_000.0..60_000.0).contains(&m), "median {m}");
        let mut small = Reservoir::new(1000, 5);
        small.push(3.0);
        assert_eq!(small.samples(), &[3.0]);
    }
}
