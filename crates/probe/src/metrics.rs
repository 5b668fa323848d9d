//! Fixed-bucket time-series sink: utilization over time, exported as
//! tidy CSV through the workspace's [`Tabular`]/
//! [`ToCsv`](mcm_engine::stats::ToCsv) machinery.
//!
//! Simulated time is divided into fixed-width buckets. Each hook folds
//! its observation into the owning bucket:
//!
//! * `link_bytes` / `xbar_bytes` / `dram_bytes` — bytes accepted per
//!   bucket per link / crossbar / DRAM partition (divide by the bucket
//!   width for bytes/cycle, i.e. GB/s at the modelled 1 GHz clock).
//! * `cache_accesses` / `cache_hit_rate` — per cache unit per bucket.
//! * `mshr_occupancy_avg` — time-weighted mean outstanding fills per SM.
//! * `warp_cycles` — warp-cycles spent in each [`WarpPhase`] per GPM.
//! * `queue_depth_max` — peak event-calendar depth per bucket.
//!
//! The output is long-format ("tidy") CSV with columns
//! `bucket_start,metric,unit,value`, one row per (series, bucket) —
//! the shape spreadsheet pivots and plotting scripts want. Rows are
//! emitted from ordered maps in a fixed metric order, so identical runs
//! produce byte-identical CSV.

use std::collections::BTreeMap;

use mcm_engine::stats::{to_csv, Tabular};
use mcm_engine::Cycle;

use crate::{FaultEvent, LinkId, Probe, WarpPhase};

/// Default bucket width in cycles.
pub const DEFAULT_BUCKET: u64 = 1024;

/// One row of the exported time-series CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricRow {
    /// First cycle of the bucket.
    pub bucket_start: u64,
    /// Series name (e.g. `link_bytes`).
    pub metric: String,
    /// Sub-series unit (e.g. `cw0`, `sm3`, `m1/compute`).
    pub unit: String,
    /// The value, pre-formatted.
    pub value: String,
}

impl Tabular for MetricRow {
    const COLUMNS: &'static [&'static str] = &["bucket_start", "metric", "unit", "value"];

    fn cells(&self) -> Vec<String> {
        vec![
            self.bucket_start.to_string(),
            self.metric.clone(),
            self.unit.clone(),
            self.value.clone(),
        ]
    }
}

/// Time-weighted occupancy series for one SM's MSHR.
#[derive(Debug, Clone, Default)]
struct OccupancySeries {
    last_t: u64,
    level: u64,
    /// Occupancy-cycles accumulated per bucket.
    acc: Vec<u64>,
}

/// Records fixed-bucket utilization time-series; render with
/// [`to_csv`](MetricsProbe::to_csv) after the run.
#[derive(Debug)]
pub struct MetricsProbe {
    bucket: u64,
    sms_per_module: u32,
    link_bytes: BTreeMap<LinkId, Vec<u64>>,
    xbar_bytes: BTreeMap<u32, Vec<u64>>,
    dram_bytes: BTreeMap<u32, Vec<u64>>,
    /// (cache name, unit) → per-bucket (hits, accesses).
    cache: BTreeMap<(&'static str, u32), Vec<(u64, u64)>>,
    mshr: BTreeMap<u32, OccupancySeries>,
    /// (module, phase) → warp-cycles per bucket.
    warp_cycles: BTreeMap<(u32, WarpPhase), Vec<u64>>,
    /// Fault-kind label → injected-fault count per bucket.
    faults: BTreeMap<&'static str, Vec<u64>>,
    /// Per warp slot: (open-phase start, phase, sm).
    warp_state: Vec<Option<(u64, WarpPhase, u32)>>,
    queue_depth_max: Vec<u64>,
    /// Latest cycle any hook observed.
    horizon: u64,
}

/// Grows `vec` so `idx` is addressable, filling with `fill`.
fn slot<T: Clone>(vec: &mut Vec<T>, idx: usize, fill: T) -> &mut T {
    if vec.len() <= idx {
        vec.resize(idx + 1, fill);
    }
    &mut vec[idx]
}

impl MetricsProbe {
    /// Creates a collector with `bucket_cycles`-wide buckets for a
    /// machine with `sms_per_module` SMs per GPM (used to fold per-SM
    /// warp phases into per-GPM series).
    ///
    /// # Panics
    ///
    /// Panics if `bucket_cycles` or `sms_per_module` is zero.
    pub fn new(bucket_cycles: u64, sms_per_module: u32) -> Self {
        assert!(bucket_cycles > 0, "bucket width must be nonzero");
        assert!(sms_per_module > 0, "sms_per_module must be nonzero");
        MetricsProbe {
            bucket: bucket_cycles,
            sms_per_module,
            link_bytes: BTreeMap::new(),
            xbar_bytes: BTreeMap::new(),
            dram_bytes: BTreeMap::new(),
            cache: BTreeMap::new(),
            mshr: BTreeMap::new(),
            warp_cycles: BTreeMap::new(),
            faults: BTreeMap::new(),
            warp_state: Vec::new(),
            queue_depth_max: Vec::new(),
            horizon: 0,
        }
    }

    /// The configured bucket width in cycles.
    pub fn bucket_cycles(&self) -> u64 {
        self.bucket
    }

    fn see(&mut self, t: u64) {
        self.horizon = self.horizon.max(t);
    }

    fn idx(&self, t: u64) -> usize {
        (t / self.bucket) as usize
    }

    /// Adds `weight` per cycle over `[start, end)` into `acc`, split
    /// across bucket boundaries.
    fn add_weighted(bucket: u64, acc: &mut Vec<u64>, start: u64, end: u64, weight: u64) {
        if end <= start || weight == 0 {
            return;
        }
        let mut t = start;
        while t < end {
            let b = t / bucket;
            let bucket_end = (b + 1) * bucket;
            let seg = end.min(bucket_end) - t;
            *slot(acc, b as usize, 0) += seg * weight;
            t = bucket_end;
        }
    }

    /// Closes warp `warp`'s open phase at `now` (clamped monotone),
    /// charging the elapsed cycles to its (module, phase) series;
    /// returns the clamped time.
    fn close_warp_phase(&mut self, warp: u32, now: u64) -> u64 {
        let open = slot(&mut self.warp_state, warp as usize, None).take();
        match open {
            Some((start, phase, sm)) if now > start => {
                let module = sm / self.sms_per_module;
                let acc = self.warp_cycles.entry((module, phase)).or_default();
                Self::add_weighted(self.bucket, acc, start, now, 1);
                now
            }
            Some((start, ..)) => start,
            None => now,
        }
    }

    /// All series as tidy rows, in deterministic order. Open
    /// time-weighted series (MSHR occupancy) are extended to the
    /// observation horizon.
    pub fn rows(&self) -> Vec<MetricRow> {
        let mut rows = Vec::new();
        let push_counts =
            |metric: &str, unit: String, series: &[u64], rows: &mut Vec<MetricRow>| {
                for (i, &v) in series.iter().enumerate() {
                    if v > 0 {
                        rows.push(MetricRow {
                            bucket_start: i as u64 * self.bucket,
                            metric: metric.to_string(),
                            unit: unit.clone(),
                            value: v.to_string(),
                        });
                    }
                }
            };
        for (link, series) in &self.link_bytes {
            push_counts("link_bytes", link.to_string(), series, &mut rows);
        }
        for (m, series) in &self.xbar_bytes {
            push_counts("xbar_bytes", format!("m{m}"), series, &mut rows);
        }
        for (m, series) in &self.dram_bytes {
            push_counts("dram_bytes", format!("m{m}"), series, &mut rows);
        }
        for ((name, unit), series) in &self.cache {
            let unit = if *name == "L1" {
                format!("{name}/sm{unit}")
            } else {
                format!("{name}/m{unit}")
            };
            for (i, &(hits, accesses)) in series.iter().enumerate() {
                if accesses > 0 {
                    let start = i as u64 * self.bucket;
                    rows.push(MetricRow {
                        bucket_start: start,
                        metric: "cache_accesses".to_string(),
                        unit: unit.clone(),
                        value: accesses.to_string(),
                    });
                    rows.push(MetricRow {
                        bucket_start: start,
                        metric: "cache_hit_rate".to_string(),
                        unit: unit.clone(),
                        value: format!("{:.4}", hits as f64 / accesses as f64),
                    });
                }
            }
        }
        for (sm, series) in &self.mshr {
            // Extend the open level to the horizon so trailing
            // occupancy is not lost.
            let mut acc = series.acc.clone();
            Self::add_weighted(
                self.bucket,
                &mut acc,
                series.last_t,
                self.horizon,
                series.level,
            );
            for (i, &v) in acc.iter().enumerate() {
                if v > 0 {
                    rows.push(MetricRow {
                        bucket_start: i as u64 * self.bucket,
                        metric: "mshr_occupancy_avg".to_string(),
                        unit: format!("sm{sm}"),
                        value: format!("{:.3}", v as f64 / self.bucket as f64),
                    });
                }
            }
        }
        for ((module, phase), series) in &self.warp_cycles {
            push_counts(
                "warp_cycles",
                format!("m{module}/{phase}"),
                series,
                &mut rows,
            );
        }
        for (kind, series) in &self.faults {
            push_counts("fault_count", (*kind).to_string(), series, &mut rows);
        }
        push_counts(
            "queue_depth_max",
            "sim".to_string(),
            &self.queue_depth_max,
            &mut rows,
        );
        rows
    }

    /// Renders every series as tidy CSV.
    pub fn to_csv(&self) -> String {
        to_csv(self.rows().iter())
    }

    /// Writes [`to_csv`](MetricsProbe::to_csv) output to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be written.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }
}

impl Probe for MetricsProbe {
    fn warp_spawn(&mut self, warp: u32, sm: u32, now: Cycle) {
        let t = now.as_u64();
        self.see(t);
        *slot(&mut self.warp_state, warp as usize, None) = Some((t, WarpPhase::Issue, sm));
    }

    fn warp_phase(&mut self, warp: u32, sm: u32, now: Cycle, phase: WarpPhase) {
        let t = now.as_u64();
        self.see(t);
        let t = self.close_warp_phase(warp, t);
        self.warp_state[warp as usize] = Some((t, phase, sm));
    }

    fn warp_retire(&mut self, warp: u32, _sm: u32, now: Cycle) {
        let t = now.as_u64();
        self.see(t);
        self.close_warp_phase(warp, t);
    }

    fn cache_access(&mut self, cache: &'static str, unit: u32, now: Cycle, hit: bool) {
        let t = now.as_u64();
        self.see(t);
        let idx = self.idx(t);
        let series = self.cache.entry((cache, unit)).or_default();
        let cell = slot(series, idx, (0, 0));
        cell.1 += 1;
        if hit {
            cell.0 += 1;
        }
    }

    fn mshr_occupancy(&mut self, sm: u32, now: Cycle, outstanding: u32, _capacity: u32) {
        let t = now.as_u64();
        self.see(t);
        let bucket = self.bucket;
        let series = self.mshr.entry(sm).or_default();
        let t = t.max(series.last_t);
        Self::add_weighted(bucket, &mut series.acc, series.last_t, t, series.level);
        series.last_t = t;
        series.level = u64::from(outstanding);
    }

    fn link_transfer(&mut self, link: LinkId, now: Cycle, bytes: u64, arrival: Cycle) {
        let t = now.as_u64();
        self.see(arrival.as_u64());
        let idx = self.idx(t);
        *slot(self.link_bytes.entry(link).or_default(), idx, 0) += bytes;
    }

    fn xbar_transfer(&mut self, module: u32, now: Cycle, bytes: u64) {
        let t = now.as_u64();
        self.see(t);
        let idx = self.idx(t);
        *slot(self.xbar_bytes.entry(module).or_default(), idx, 0) += bytes;
    }

    fn dram_access(&mut self, partition: u32, now: Cycle, bytes: u64) {
        let t = now.as_u64();
        self.see(t);
        let idx = self.idx(t);
        *slot(self.dram_bytes.entry(partition).or_default(), idx, 0) += bytes;
    }

    fn queue_depth(&mut self, now: Cycle, depth: usize) {
        let t = now.as_u64();
        self.see(t);
        let idx = self.idx(t);
        let cell = slot(&mut self.queue_depth_max, idx, 0);
        *cell = (*cell).max(depth as u64);
    }

    fn fault(&mut self, now: Cycle, event: FaultEvent) {
        let t = now.as_u64();
        self.see(t);
        let idx = self.idx(t);
        *slot(self.faults.entry(event.label()).or_default(), idx, 0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_engine::stats::ToCsv;

    #[test]
    fn csv_header_is_tidy() {
        assert_eq!(MetricRow::csv_header(), "bucket_start,metric,unit,value");
    }

    #[test]
    fn bytes_land_in_their_buckets() {
        let mut m = MetricsProbe::new(100, 4);
        m.link_transfer(LinkId::RingCw(0), Cycle::new(10), 32, Cycle::new(42));
        m.link_transfer(LinkId::RingCw(0), Cycle::new(150), 128, Cycle::new(182));
        m.dram_access(2, Cycle::new(250), 128);
        let rows = m.rows();
        let link: Vec<_> = rows.iter().filter(|r| r.metric == "link_bytes").collect();
        assert_eq!(link.len(), 2);
        assert_eq!(link[0].bucket_start, 0);
        assert_eq!(link[0].value, "32");
        assert_eq!(link[1].bucket_start, 100);
        assert_eq!(link[1].value, "128");
        let dram: Vec<_> = rows.iter().filter(|r| r.metric == "dram_bytes").collect();
        assert_eq!(dram[0].unit, "m2");
        assert_eq!(dram[0].bucket_start, 200);
    }

    #[test]
    fn warp_phase_cycles_split_across_buckets() {
        let mut m = MetricsProbe::new(100, 2);
        m.warp_spawn(0, 3, Cycle::new(50)); // sm 3 → module 1
        m.warp_phase(0, 3, Cycle::new(80), WarpPhase::Compute);
        m.warp_retire(0, 3, Cycle::new(250));
        let rows = m.rows();
        let issue: Vec<_> = rows
            .iter()
            .filter(|r| r.metric == "warp_cycles" && r.unit == "m1/issue")
            .collect();
        assert_eq!(issue.len(), 1);
        assert_eq!(issue[0].value, "30"); // [50, 80)
        let compute: Vec<_> = rows
            .iter()
            .filter(|r| r.metric == "warp_cycles" && r.unit == "m1/compute")
            .collect();
        // [80, 250) splits 20 + 100 + 50 across three buckets.
        let values: Vec<&str> = compute.iter().map(|r| r.value.as_str()).collect();
        assert_eq!(values, vec!["20", "100", "50"]);
    }

    #[test]
    fn mshr_occupancy_is_time_weighted() {
        let mut m = MetricsProbe::new(100, 4);
        m.mshr_occupancy(1, Cycle::new(0), 2, 8);
        m.mshr_occupancy(1, Cycle::new(50), 0, 8);
        m.queue_depth(Cycle::new(100), 1); // push horizon to 100
        let rows = m.rows();
        let occ: Vec<_> = rows
            .iter()
            .filter(|r| r.metric == "mshr_occupancy_avg")
            .collect();
        assert_eq!(occ.len(), 1);
        // 2 outstanding for 50 of 100 cycles → average 1.0.
        assert_eq!(occ[0].value, "1.000");
    }

    #[test]
    fn cache_hit_rate_per_bucket() {
        let mut m = MetricsProbe::new(100, 4);
        m.cache_access("L1.5", 0, Cycle::new(10), true);
        m.cache_access("L1.5", 0, Cycle::new(20), false);
        m.cache_access("L1.5", 0, Cycle::new(30), true);
        let rows = m.rows();
        let rate: Vec<_> = rows
            .iter()
            .filter(|r| r.metric == "cache_hit_rate")
            .collect();
        assert_eq!(rate[0].unit, "L1.5/m0");
        assert_eq!(rate[0].value, "0.6667");
    }

    #[test]
    fn csv_is_deterministic() {
        let run = || {
            let mut m = MetricsProbe::new(64, 4);
            m.xbar_transfer(1, Cycle::new(5), 128);
            m.link_transfer(LinkId::RingCcw(3), Cycle::new(9), 32, Cycle::new(41));
            m.queue_depth(Cycle::new(70), 12);
            m.to_csv()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.starts_with("bucket_start,metric,unit,value\n"));
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_panics() {
        MetricsProbe::new(0, 4);
    }

    #[test]
    fn add_weighted_distributes_exact_per_bucket_overlaps() {
        use mcm_testkit::prelude::*;
        // For any span, bucket width and weight, each bucket receives
        // exactly overlap([start, end), bucket_b) * weight — including
        // spans that straddle bucket boundaries — and the per-bucket
        // contributions therefore sum to (end - start) * weight.
        let gen = (
            u64s(1..257),    // bucket width
            u64s(0..10_000), // span start
            u64s(0..2_049),  // span length (0 → empty span)
            u64s(0..100),    // weight (0 → no-op)
        );
        check(
            "add_weighted_distributes_exact_per_bucket_overlaps",
            &gen,
            |&(bucket, start, len, weight)| {
                let end = start + len;
                let mut acc = Vec::new();
                MetricsProbe::add_weighted(bucket, &mut acc, start, end, weight);
                let total: u64 = acc.iter().sum();
                assert_eq!(
                    total,
                    len * weight,
                    "span [{start}, {end}) x{weight} at bucket {bucket}"
                );
                for (b, &got) in acc.iter().enumerate() {
                    let b_start = b as u64 * bucket;
                    let b_end = b_start + bucket;
                    let overlap = end.min(b_end).saturating_sub(start.max(b_start));
                    assert_eq!(
                        got,
                        overlap * weight,
                        "bucket {b} of span [{start}, {end}) x{weight} at width {bucket}"
                    );
                }
                if len == 0 || weight == 0 {
                    assert!(acc.is_empty(), "degenerate spans must not touch acc");
                }
            },
        );
    }

    #[test]
    fn faults_are_counted_per_bucket_per_kind() {
        let mut m = MetricsProbe::new(100, 4);
        let retry = FaultEvent::LinkRetry {
            link: LinkId::RingCw(0),
            attempt: 0,
        };
        m.fault(Cycle::new(10), retry);
        m.fault(Cycle::new(20), retry);
        m.fault(Cycle::new(150), FaultEvent::MshrPoison { request: 7 });
        let rows = m.rows();
        let faults: Vec<_> = rows.iter().filter(|r| r.metric == "fault_count").collect();
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].unit, "link-retry");
        assert_eq!(faults[0].value, "2");
        assert_eq!(faults[1].unit, "mshr-poison");
        assert_eq!(faults[1].bucket_start, 100);
    }
}
