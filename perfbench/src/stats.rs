//! Sample series, the host fingerprint, and job-stream fingerprints.

use das::core::jobs::StreamStats;
use std::hint::black_box;
use std::time::Instant;

/// A series of samples of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Series(pub Vec<f64>);

/// What is reported for one metric: a headline value, its sample count
/// and the spread of the samples it summarises.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub value: f64,
    pub n: usize,
    pub p25: f64,
    pub p75: f64,
}

impl Series {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, vs: impl IntoIterator<Item = f64>) {
        self.0.extend(vs);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.0.iter().copied().filter(|x| x.is_finite()).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `q`-quantile as the headline, with the quartiles as spread.
    pub fn summary(&self, q: f64) -> Summary {
        let s = self.sorted();
        Summary {
            value: quantile_sorted(&s, q).unwrap_or(0.0),
            n: s.len(),
            p25: quantile_sorted(&s, 0.25).unwrap_or(0.0),
            p75: quantile_sorted(&s, 0.75).unwrap_or(0.0),
        }
    }

    pub fn median(&self) -> Summary {
        self.summary(0.5)
    }
}

fn quantile_sorted(s: &[f64], q: f64) -> Option<f64> {
    if s.is_empty() {
        return None;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

/// The machine a result was measured on: its parallelism and the speed
/// of a fixed integer loop, so results from different hosts are not
/// compared as if they were one.
pub struct Host {
    pub nproc: usize,
    pub calib_ns_per_op: f64,
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        const OPS: u64 = 20_000_000;
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            for _ in 0..OPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            best = best.min(t.elapsed().as_secs_f64() * 1e9 / OPS as f64);
        }
        Host {
            nproc,
            calib_ns_per_op: best,
        }
    }
}

/// SplitMix64: the benchmark's own seeded generator for inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over 64-bit words.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The exact bits of every job's arrival, start and completion, in job
/// order: equal fingerprints mean the executor ran the identical
/// schedule.
pub fn fingerprint(records: &StreamStats) -> u64 {
    let mut h = Fnv::new();
    for j in &records.jobs {
        h.word(j.id.0);
        h.word(j.arrival.to_bits());
        h.word(j.started.to_bits());
        h.word(j.completed.to_bits());
        h.word(j.tasks as u64);
    }
    h.finish()
}
