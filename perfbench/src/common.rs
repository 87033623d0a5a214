//! Shared plumbing: the seeded generator, order statistics, process
//! memory probes, result digests and the report the benchmark prints.

use std::fmt::Write as _;
use std::path::Path;

use critic_core::campaign::CellMetrics;
use critic_core::keys::stable_key;

/// SplitMix64: a tiny, fully specified generator, so a `--seed` names the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// An exponential inter-arrival time for a Poisson process at `rate`
    /// events per second, in seconds.
    pub fn exp_secs(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The tail statistic of choosing-metrics: the highest percentile of the
/// ladder that still has at least ten samples beyond it. Returns
/// `(percentile, value)`; `(50, median)` when fewer than twenty samples.
pub fn tail(values: &[f64]) -> (f64, f64) {
    // Per-mille, so the count of samples beyond is exact integer math.
    let mut best = 500;
    for per_mille in [750, 900, 950, 990, 999] {
        if values.len() * (1000 - per_mille) / 1000 >= 10 {
            best = per_mille;
        }
    }
    (best as f64 / 10.0, quantile(values, best as f64 / 1000.0))
}

/// Peak resident set (`VmHWM`) of a live process, in MB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(Path::new("/proc").join(pid).join("status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cell results as (app, scheme, metrics).
pub type CellResults = Vec<(String, String, CellMetrics)>;

/// Order-independent digest of a set of cell results: sorted by
/// (app, scheme) and hashed through the repository's canonical encoder,
/// so equal results give equal digests across processes.
pub fn digest(cells: &[(String, String, CellMetrics)]) -> u64 {
    let mut sorted = cells.to_vec();
    sorted.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    stable_key(&sorted)
}

/// Worker threads the workloads may use: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run prints as its last line.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable context printed before the JSON line (tail
    /// percentile, digests, oracle verdicts).
    pub notes: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// The single JSON line the benchmark contract asks for. Numbers keep
    /// every digit Rust's shortest round-trip formatting gives them.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v).0, 90.0);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v).0, 95.0);
        assert_eq!(tail(&[1.0, 2.0]).0, 50.0);
    }

    #[test]
    fn generator_is_seed_stable() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(7);
        let mut s = Rng::new(8);
        assert_ne!(r.next_u64(), s.next_u64());
    }

    #[test]
    fn json_has_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.push("setup_s", 0.25, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
