//! The metric names the benchmark reports, with their units. They must
//! match `BENCHMARK.json` (a test checks it).

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("rss_peak_mb", "MB"),
    ("disk_bytes_per_xml_byte", "ratio"),
];

/// The six `/`-form lowsel cells that carry the per-cell and reference
/// metrics.
pub const LOWSEL_CELLS: [(&str, usize); 6] = [
    ("dblp", 9),
    ("dblp", 10),
    ("dblp", 11),
    ("dblp", 12),
    ("treebank", 10),
    ("treebank", 12),
];

/// Per-layer metrics, reported by every workload's traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("xml.parse_mb_s", "MB/s"),
        ("build.create_s", "s"),
        ("build.open_s", "s"),
        ("parse.us", "us"),
        ("plan.us", "us"),
        ("exec.ms", "ms"),
        ("exec.entries_per_result", "ratio"),
        ("exec.dir_probes_per_query", "count"),
        ("exec.starting_points_per_query", "count"),
        ("exec.scan_seed_frac", "ratio"),
        ("exec.proven_empty_frac", "ratio"),
        ("pool.struct.logical_gets_per_query", "count"),
        ("btree.val_lookup_us", "us"),
        ("btree.id_lookup_us", "us"),
        ("values.read_us", "us"),
        ("serve.server_p50_us", "us"),
        ("serve.server_p99_us", "us"),
        ("serve.plan_hit_ratio", "ratio"),
        ("serve.plan_stale_per_commit", "count"),
        ("serve.read_only_qps", "1/s"),
        ("serve.mixed_qps_ratio", "ratio"),
        ("commit.insert_ms", "ms"),
        ("commit.delete_ms", "ms"),
        ("commit.nondurable_ms", "ms"),
        ("commit.wal_bytes_per_commit", "B"),
        ("commit.mutating_io_per_commit", "count"),
        ("commit_p50_ms", "ms"),
        ("commit_p90_ms", "ms"),
        ("writer.late_ms", "ms"),
        ("mvcc.retired_generations_per_commit", "ratio"),
        ("mvcc.live_generations_max", "count"),
        ("mvcc.pinned_readers_max", "count"),
        ("trace.overhead_frac", "ratio"),
        ("error_frac", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for b in ["classic", "succinct"] {
        for p in crate::layers::NAV_PRIMS {
            v.push((format!("nav.{p}_ns.{b}"), "ns"));
        }
        v.push((format!("decode.cold_us_per_page.{b}"), "us"));
    }
    for p in crate::inproc::POOLS {
        v.push((format!("pool.{p}.hit_ratio"), "ratio"));
        v.push((format!("pool.{p}.physical_reads_per_query"), "count"));
        v.push((format!("pool.{p}.evictions_per_query"), "count"));
    }
    for proto in ["binary", "json"] {
        v.push((format!("wire.{proto}.query_p50_ms"), "ms"));
        v.push((format!("wire.{proto}.encode_us"), "us"));
        v.push((format!("wire.{proto}.decode_us"), "us"));
        v.push((format!("wire.{proto}.bytes_per_response"), "B"));
    }
    for (ds, q) in LOWSEL_CELLS {
        for b in ["classic", "succinct"] {
            v.push((format!("cell.{ds}.Q{q}.ms.{b}"), "ms"));
        }
        v.push((format!("ref.di.{ds}.Q{q}.ms"), "ms"));
        v.push((format!("ref.twigstack.{ds}.Q{q}.ms"), "ms"));
    }
    v
}

/// Collected metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Record (or overwrite) one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// Render the metrics object for exactly `names`, failing on a missing
    /// or non-finite value.
    pub fn render(&self, names: &[(String, &str)]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = *self
                .0
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push('}');
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nok_serve::Json;

    /// The names and units in `BENCHMARK.json` are the ones reported here.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Json::as_str)
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn render_requires_every_metric() {
        let mut m = Metrics::default();
        m.set("a", 1.5);
        let names = vec![("a".to_string(), "ms"), ("b".to_string(), "s")];
        assert!(m.render(&names).unwrap_err().contains("b"));
        m.set("b", 2.0);
        assert_eq!(
            m.render(&names).unwrap(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}"
        );
    }
}
