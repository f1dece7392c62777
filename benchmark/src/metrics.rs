//! The metric tables: every name the benchmark prints, its unit, which way
//! is better and — for end-to-end metrics — the regression bound. What each
//! one measures is in `README.md`'s glossary. `BENCHMARK.json` at the
//! repository root repeats these tables; unit tests hold all three together.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Measured with tracing off, two closed-loop clients, every workload.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("query_p50_ms", "ms", "lower", 0.25),
    e2e("query_p95_ms", "ms", "lower", 0.25),
    e2e("queries_per_s", "1/s", "higher", 0.25),
    e2e("rows_per_s", "1/s", "higher", 0.25),
    e2e("ttfb_p50_ms", "ms", "lower", 0.25),
    e2e("peak_heap_mib", "MiB", "lower", 0.10),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Measured in the traced run, one client. Layer = crate.
pub const PER_LAYER: [MetricDef; 39] = [
    layer("sql.parse_us", "us", "lower"),
    layer("core.mediate_us", "us", "lower"),
    layer("planner.plan_us", "us", "lower"),
    layer("core.compile_us", "us", "lower"),
    layer("core.branches_per_query", "count", "lower"),
    layer("core.prepare_hit_us", "us", "lower"),
    layer("core.prepare_miss_us", "us", "lower"),
    layer("core.cache_hit_rate", "ratio", "higher"),
    layer("core.cache_compiles", "count", "lower"),
    layer("core.cache_evictions", "count", "lower"),
    layer("core.invalidated_per_admin", "count", "lower"),
    layer("core.admin_write_us", "us", "lower"),
    layer("wrapper.fetch_calls", "count", "lower"),
    layer("wrapper.fetch_rows", "count", "lower"),
    layer("wrapper.fetch_busy_us", "us", "lower"),
    layer("planner.remote_queries_per_query", "count", "lower"),
    layer("planner.stage_self_us", "us", "lower"),
    layer("rel.drain_us", "us", "lower"),
    layer("rel.rows_out", "count", "higher"),
    layer("rel.ns_per_row", "ns", "lower"),
    layer("rel.spill_bytes", "B", "lower"),
    layer("server.serialize_us", "us", "lower"),
    layer("server.tail_us", "us", "lower"),
    layer("server.glue_us", "us", "lower"),
    layer("server.stream_wait_us", "us", "lower"),
    layer("server.body_bytes", "B", "lower"),
    layer("server.transport_us", "us", "lower"),
    layer("server.wakeups_per_req", "count", "lower"),
    layer("server.interest_ops_per_req", "count", "lower"),
    layer("server.shed", "count", "lower"),
    layer("server.streams_aborted", "count", "lower"),
    layer("client.untraced_p50_ms", "ms", "lower"),
    layer("client.traced_p50_ms", "ms", "lower"),
    layer("client.miss_p50_ms", "ms", "lower"),
    layer("client.tail_ms", "ms", "lower"),
    layer("mem.peak_heap_mib", "MiB", "lower"),
    layer("mem.allocs_per_query", "count", "lower"),
    layer("trace.coverage", "ratio", "higher"),
    layer("trace.overhead_pct", "%", "lower"),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Measured values in table order, checked complete before printing.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The values in `table`'s order; an error names the first metric of
    /// the table that was not measured (or is not a number).
    pub fn in_order(
        &self,
        table: &'static [MetricDef],
    ) -> Result<Vec<(&'static MetricDef, f64)>, String> {
        table
            .iter()
            .map(|def| match self.get(def.name) {
                Some(v) if v.is_finite() => Ok((def, v)),
                Some(v) => Err(format!("{} is not a number: {v}", def.name)),
                None => Err(format!("{} was not measured", def.name)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coin_server::{parse_json, Json};

    fn names_are_unique_and_well_formed(table: &[MetricDef]) {
        for (i, m) in table.iter().enumerate() {
            assert!(
                table[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(matches!(m.better, "lower" | "higher"));
        }
    }

    #[test]
    fn tables_are_well_formed() {
        names_are_unique_and_well_formed(&END_TO_END);
        names_are_unique_and_well_formed(&PER_LAYER);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn readme_glossary_names_every_metric_and_workload() {
        let readme = include_str!("../README.md");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                readme.contains(&format!("`{}`", m.name)),
                "{} is not in README.md",
                m.name
            );
        }
        for (name, _, _) in crate::workload::ALL {
            assert!(
                readme.contains(&format!("`{name}`")),
                "{name} is not in README.md"
            );
        }
    }

    /// `BENCHMARK.json` lives outside this package, at the repository root;
    /// in a checkout that has it, it must repeat the tables above.
    #[test]
    fn benchmark_json_repeats_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = parse_json(&text).unwrap();
        let check = |key: &str, table: &[MetricDef]| {
            let listed = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, m) in listed.iter().zip(table) {
                let field = |f: &str| j.get(f).and_then(Json::as_str).unwrap().to_owned();
                assert_eq!(field("name"), m.name);
                assert_eq!(field("unit"), m.unit, "{}", m.name);
                assert_eq!(field("better"), m.better, "{}", m.name);
                assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
        let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(workloads.len(), crate::workload::ALL.len());
        for (j, (name, _, why)) in workloads.iter().zip(crate::workload::ALL) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(j.get("why").and_then(Json::as_str), Some(why));
            assert!(why.len() <= 200, "{name}: why is {} characters", why.len());
        }
    }
}
