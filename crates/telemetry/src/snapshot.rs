//! Point-in-time snapshots of a [`Registry`](crate::Registry) and
//! their JSON/CSV sinks.
//!
//! A snapshot groups metrics into three sections by determinism class.
//! The JSON document marks the volatile section explicitly
//! (`"volatile_not_reproducible"`) so downstream diffing — the perf
//! comparator, the determinism tests — can compare the reproducible
//! sections byte-for-byte and skip the rest without a schema oracle.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::json::{push_escaped, push_f64};
use crate::Class;

/// The schema tag stamped into every snapshot JSON document.
pub const SCHEMA: &str = "mcm-telemetry-v1";

/// One metric's captured value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's current value.
    Gauge(u64),
    /// A histogram's bounds and per-bucket counts (last = overflow).
    Histogram {
        /// Ascending inclusive upper edges.
        bounds: Vec<u64>,
        /// `bounds.len() + 1` bucket counts.
        counts: Vec<u64>,
    },
}

/// A point-in-time copy of a registry, sectioned by [`Class`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Metrics identical across runs and knob settings.
    pub deterministic: BTreeMap<String, Value>,
    /// Metrics deterministic for a fixed `MCM_JOBS`.
    pub per_config: BTreeMap<String, Value>,
    /// Scheduling/wall-clock metrics; never diffed.
    pub volatile: BTreeMap<String, Value>,
}

impl Snapshot {
    /// The section a class maps to.
    pub fn section_mut(&mut self, class: Class) -> &mut BTreeMap<String, Value> {
        match class {
            Class::Deterministic => &mut self.deterministic,
            Class::PerConfig => &mut self.per_config,
            Class::Volatile => &mut self.volatile,
        }
    }

    /// Subtracts `earlier` from `self` metric-wise (counters and
    /// histogram buckets saturate at zero; gauges keep the later
    /// value). Metrics absent from `earlier` pass through unchanged.
    /// The delta of two snapshots around a unit of work isolates that
    /// work's telemetry from whatever ran before.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        fn diff(
            now: &BTreeMap<String, Value>,
            then: &BTreeMap<String, Value>,
        ) -> BTreeMap<String, Value> {
            now.iter()
                .map(|(name, v)| {
                    let d = match (v, then.get(name)) {
                        (Value::Counter(n), Some(Value::Counter(e))) => {
                            Value::Counter(n.saturating_sub(*e))
                        }
                        (
                            Value::Histogram { bounds, counts },
                            Some(Value::Histogram { counts: ec, .. }),
                        ) => Value::Histogram {
                            bounds: bounds.clone(),
                            counts: counts
                                .iter()
                                .zip(ec.iter().chain(std::iter::repeat(&0)))
                                .map(|(n, e)| n.saturating_sub(*e))
                                .collect(),
                        },
                        (v, _) => v.clone(),
                    };
                    (name.clone(), d)
                })
                .collect()
        }
        Snapshot {
            deterministic: diff(&self.deterministic, &earlier.deterministic),
            per_config: diff(&self.per_config, &earlier.per_config),
            volatile: diff(&self.volatile, &earlier.volatile),
        }
    }

    /// Renders the snapshot as a JSON document labeled `label`.
    ///
    /// Layout (stable within [`SCHEMA`]):
    ///
    /// ```json
    /// {"schema":"mcm-telemetry-v1","label":"...",
    ///  "deterministic":{"memo.hits":3, ...},
    ///  "per_config":{"exec.pools":1, ...},
    ///  "volatile_not_reproducible":{"exec.busy_ns":..., ...}}
    /// ```
    ///
    /// Counters and gauges render as numbers; histograms as
    /// `{"bounds":[...],"counts":[...]}`.
    pub fn to_json(&self, label: &str) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        push_escaped(&mut out, "schema");
        out.push(':');
        push_escaped(&mut out, SCHEMA);
        out.push(',');
        push_escaped(&mut out, "label");
        out.push(':');
        push_escaped(&mut out, label);
        for (section, map) in [
            ("deterministic", &self.deterministic),
            ("per_config", &self.per_config),
            ("volatile_not_reproducible", &self.volatile),
        ] {
            out.push(',');
            push_escaped(&mut out, section);
            out.push_str(":{");
            let mut first = true;
            for (name, value) in map {
                if !first {
                    out.push(',');
                }
                first = false;
                push_escaped(&mut out, name);
                out.push(':');
                push_value(&mut out, value);
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Renders the snapshot as CSV: `section,metric,kind,field,value`
    /// (histograms emit one row per bucket, `field` = the bucket's
    /// upper edge or `overflow`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("section,metric,kind,field,value\n");
        for (section, map) in [
            ("deterministic", &self.deterministic),
            ("per_config", &self.per_config),
            ("volatile", &self.volatile),
        ] {
            for (name, value) in map {
                match value {
                    Value::Counter(v) => {
                        out.push_str(&format!("{section},{name},counter,value,{v}\n"));
                    }
                    Value::Gauge(v) => {
                        out.push_str(&format!("{section},{name},gauge,value,{v}\n"));
                    }
                    Value::Histogram { bounds, counts } => {
                        for (i, c) in counts.iter().enumerate() {
                            let edge = bounds
                                .get(i)
                                .map_or_else(|| "overflow".to_string(), u64::to_string);
                            out.push_str(&format!("{section},{name},histogram,{edge},{c}\n"));
                        }
                    }
                }
            }
        }
        out
    }

    /// Writes [`Snapshot::to_json`] to `path`, creating parent
    /// directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_json(&self, path: &Path, label: &str) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json(label))
    }
}

fn push_value(out: &mut String, value: &Value) {
    match value {
        Value::Counter(v) | Value::Gauge(v) => push_f64(out, *v as f64),
        Value::Histogram { bounds, counts } => {
            out.push('{');
            push_escaped(out, "bounds");
            out.push_str(":[");
            for (i, b) in bounds.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_f64(out, *b as f64);
            }
            out.push_str("],");
            push_escaped(out, "counts");
            out.push_str(":[");
            for (i, c) in counts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_f64(out, *c as f64);
            }
            out.push_str("]}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::Registry;

    fn sample() -> Snapshot {
        let reg = Registry::new();
        reg.counter("memo.hits", Class::Deterministic).add(3);
        reg.gauge("demo.depth_hw", Class::PerConfig).set(5);
        reg.counter("exec.busy_ns", Class::Volatile).add(123);
        reg.histogram("demo.batch_events", Class::PerConfig, &[4, 16])
            .observe(9);
        reg.snapshot()
    }

    #[test]
    fn json_sections_are_grouped_and_parseable() {
        let snap = sample();
        let doc = Json::parse(&snap.to_json("unit")).expect("snapshot JSON parses");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(doc.get("label").unwrap().as_str(), Some("unit"));
        assert_eq!(
            doc.get("deterministic")
                .unwrap()
                .get("memo.hits")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        assert_eq!(
            doc.get("per_config")
                .unwrap()
                .get("demo.depth_hw")
                .unwrap()
                .as_u64(),
            Some(5)
        );
        let vol = doc.get("volatile_not_reproducible").unwrap();
        assert_eq!(vol.get("exec.busy_ns").unwrap().as_u64(), Some(123));
        let hist = doc
            .get("per_config")
            .unwrap()
            .get("demo.batch_events")
            .unwrap();
        assert_eq!(hist.get("counts").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn csv_has_one_row_per_scalar_and_bucket() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "section,metric,kind,field,value");
        // 3 scalars + 3 histogram buckets.
        assert_eq!(lines.len(), 1 + 3 + 3);
        assert!(lines.contains(&"deterministic,memo.hits,counter,value,3"));
        assert!(lines.contains(&"per_config,demo.batch_events,histogram,overflow,0"));
    }

    #[test]
    fn delta_isolates_new_work() {
        let reg = Registry::new();
        let c = reg.counter("memo.misses", Class::Deterministic);
        c.add(10);
        let before = reg.snapshot();
        c.add(7);
        let delta = reg.snapshot().delta_since(&before);
        assert_eq!(
            delta.deterministic.get("memo.misses"),
            Some(&Value::Counter(7))
        );
    }

    #[test]
    fn delta_passes_through_metrics_missing_earlier() {
        let reg = Registry::new();
        let before = reg.snapshot();
        reg.counter("late.arrival", Class::Deterministic).add(2);
        let delta = reg.snapshot().delta_since(&before);
        assert_eq!(
            delta.deterministic.get("late.arrival"),
            Some(&Value::Counter(2))
        );
    }
}
