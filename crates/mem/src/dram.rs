//! Deterministic DRAM latency model (DRAMSim2 stand-in).
//!
//! Table II specifies a 50–100-cycle main-memory latency. The paper
//! reports that DTexL does not change the number of main-memory accesses,
//! so a full bank/row model is unnecessary; what matters is that misses
//! see a realistic, address-dependent latency in that window. We hash the
//! line address and a request counter into the window, which gives
//! reproducible per-run latencies with bank-conflict-like jitter.

use crate::LineAddr;

/// DRAM latency window configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Minimum load-to-use latency in cycles.
    pub min_latency: u32,
    /// Maximum load-to-use latency in cycles.
    pub max_latency: u32,
    /// Deterministic fault injection: every `spike_period`-th request
    /// (1-based) pays `spike_extra` additional cycles, modeling
    /// contention spikes on the memory bus. `0` disables spikes.
    pub spike_period: u64,
    /// Extra latency cycles charged on spiked requests.
    pub spike_extra: u32,
}

impl Default for DramConfig {
    /// Table II: 50–100 cycles, no injected spikes.
    fn default() -> Self {
        Self {
            min_latency: 50,
            max_latency: 100,
            spike_period: 0,
            spike_extra: 0,
        }
    }
}

/// Deterministic DRAM model: every fill request gets a latency in
/// `[min_latency, max_latency]` derived from the address and request
/// order.
///
/// # Examples
///
/// ```
/// use dtexl_mem::{DramConfig, DramModel};
/// let mut dram = DramModel::new(DramConfig::default());
/// let lat = dram.request(0xdead);
/// assert!((50..=100).contains(&lat));
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    requests: u64,
    spikes: u64,
    total_latency: u64,
}

impl DramModel {
    /// Create the model.
    ///
    /// # Panics
    ///
    /// Panics if `min_latency > max_latency`.
    #[must_use]
    pub fn new(config: DramConfig) -> Self {
        assert!(config.min_latency <= config.max_latency);
        Self {
            config,
            requests: 0,
            spikes: 0,
            total_latency: 0,
        }
    }

    /// Issue a fill request for `line`; returns its latency in cycles.
    pub fn request(&mut self, line: LineAddr) -> u32 {
        self.requests += 1;
        let span = u64::from(self.config.max_latency - self.config.min_latency) + 1;
        // splitmix64-style hash of (line, request index)
        let mut z = line
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.requests);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let mut lat = self.config.min_latency + (z % span) as u32;
        if self.config.spike_period > 0 && self.requests.is_multiple_of(self.config.spike_period) {
            lat += self.config.spike_extra;
            self.spikes += 1;
        }
        self.total_latency += u64::from(lat);
        lat
    }

    /// Number of fill requests served.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Number of requests that landed on an injected latency spike
    /// (always 0 with `spike_period == 0`).
    #[must_use]
    pub fn spikes(&self) -> u64 {
        self.spikes
    }

    /// Mean latency over all requests (0 when idle).
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.requests as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_in_window() {
        let mut d = DramModel::new(DramConfig::default());
        for line in 0..1000 {
            let lat = d.request(line * 7919);
            assert!((50..=100).contains(&lat));
        }
        assert_eq!(d.requests(), 1000);
        let mean = d.mean_latency();
        assert!(
            (60.0..90.0).contains(&mean),
            "hash should spread latencies, mean = {mean}"
        );
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = DramModel::new(DramConfig::default());
        let mut b = DramModel::new(DramConfig::default());
        for line in [1, 2, 3, 99, 12345] {
            assert_eq!(a.request(line), b.request(line));
        }
    }

    #[test]
    fn request_order_matters() {
        let mut a = DramModel::new(DramConfig::default());
        let first = a.request(42);
        let second = a.request(42);
        // Same address, different request index: latencies may differ,
        // and both remain in the window.
        assert!((50..=100).contains(&first));
        assert!((50..=100).contains(&second));
    }

    #[test]
    fn degenerate_window() {
        let mut d = DramModel::new(DramConfig {
            min_latency: 70,
            max_latency: 70,
            ..DramConfig::default()
        });
        assert_eq!(d.request(5), 70);
    }

    #[test]
    // lint: typed-sibling(degenerate_window)
    #[should_panic]
    fn inverted_window_panics() {
        let _ = DramModel::new(DramConfig {
            min_latency: 100,
            max_latency: 50,
            ..DramConfig::default()
        });
    }

    #[test]
    fn latency_spikes_hit_every_nth_request() {
        let cfg = DramConfig {
            min_latency: 70,
            max_latency: 70,
            spike_period: 3,
            spike_extra: 500,
        };
        let mut d = DramModel::new(cfg);
        let lats: Vec<u32> = (0..9).map(|line| d.request(line)).collect();
        // Requests are 1-based: the 3rd, 6th and 9th spike.
        assert_eq!(lats, [70, 70, 570, 70, 70, 570, 70, 70, 570]);
        assert_eq!(d.spikes(), 3);
    }

    #[test]
    fn zero_period_never_spikes() {
        let mut d = DramModel::new(DramConfig {
            spike_extra: 500,
            ..DramConfig::default()
        });
        for line in 0..100 {
            assert!((50..=100).contains(&d.request(line)));
        }
        assert_eq!(d.spikes(), 0);
    }
}
