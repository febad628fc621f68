//! Small numeric helpers: sample quantiles, a bit-exact output digest,
//! peak memory, and counter/histogram deltas summed over registries.

use rups_obs::{HistogramSample, MetricsSnapshot, Registry};

/// Linearly interpolated sample quantile (`q` in `[0, 1]`); sorts `xs`.
/// 0 on an empty sample.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; 0 on an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over the fix outputs of a run's check window.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one fix: observer id, neighbour id, and the distance's bits
    /// (`None`, a refused fix, folds as all ones).
    pub fn fix(&mut self, observer: u64, neighbour: u64, distance_m: Option<f64>) {
        let bits = distance_m.map_or(u64::MAX, f64::to_bits);
        for word in [observer, neighbour, bits] {
            for byte in word.to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident memory of this process in MB (`VmHWM`); 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Counter and histogram deltas over a set of registries, summed: one
/// registry on pair workloads, one per shard on the fleet workload. A delta
/// can span several instances in turn: open it on one, close it, open it
/// on the next.
#[derive(Default)]
pub struct RegistryDelta {
    before: Vec<MetricsSnapshot>,
    delta: Vec<MetricsSnapshot>,
}

impl RegistryDelta {
    /// Starts counting from the registries' current values.
    pub fn open<'a>(&mut self, registries: impl IntoIterator<Item = &'a Registry>) {
        self.before = registries.into_iter().map(Registry::snapshot).collect();
    }

    /// Adds what the registries counted since [`RegistryDelta::open`];
    /// `registries` must be the ones it was opened on, in order.
    pub fn close<'a>(&mut self, registries: impl IntoIterator<Item = &'a Registry>) {
        let before = std::mem::take(&mut self.before);
        self.delta.extend(
            registries
                .into_iter()
                .zip(&before)
                .map(|(r, before)| r.snapshot().delta(before)),
        );
    }

    /// Summed delta of one counter (0 when no registry has it).
    pub fn counter(&self, name: &str) -> f64 {
        self.delta
            .iter()
            .filter_map(|s| s.counter(name))
            .sum::<u64>() as f64
    }

    /// Summed delta of every counter whose name starts with `prefix`.
    pub fn counters_with_prefix(&self, prefix: &str) -> f64 {
        self.delta
            .iter()
            .flat_map(|s| &s.counters)
            .filter(|c| c.name.starts_with(prefix))
            .map(|c| c.value)
            .sum::<u64>() as f64
    }

    /// One histogram's delta merged over every registry.
    pub fn histogram(&self, name: &str) -> Option<HistogramSample> {
        self.delta
            .iter()
            .filter_map(|s| s.histogram(name))
            .try_fold(None::<HistogramSample>, |acc, h| match acc {
                None => Some(Some(h.clone())),
                Some(a) => a.try_merge(h).ok().map(Some),
            })
            .flatten()
    }

    /// Sum of one latency histogram's delta, in ms.
    pub fn hist_sum_ms(&self, name: &str) -> f64 {
        self.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e6)
    }

    /// Count of one histogram's delta.
    pub fn hist_count(&self, name: &str) -> f64 {
        self.histogram(name).map_or(0.0, |h| h.count as f64)
    }

    /// Mean of one latency histogram's delta, in ms per recorded sample.
    pub fn hist_mean_ms(&self, name: &str) -> f64 {
        ratio(self.hist_sum_ms(name), self.hist_count(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let mut xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(quantile(&mut xs, 0.5), 2.5);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn digest_sees_every_bit_of_a_fix() {
        let digest = |d: f64| {
            let mut g = Digest::default();
            g.fix(1, 2, Some(d));
            g.value()
        };
        assert_eq!(digest(5.0), digest(5.0));
        assert_ne!(digest(5.0), digest(f64::from_bits(5.0f64.to_bits() + 1)));
    }
}
