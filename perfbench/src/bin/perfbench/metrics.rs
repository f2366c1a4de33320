//! The metric catalogue (names, units, directions, and for per-layer
//! metrics which end-to-end metric they should move and where) and the
//! result line.

use crate::probes::Values;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Per-layer metrics: the end-to-end metric this one should move, and
    /// the workloads where its layer does the work.
    pub moves: &'static str,
    pub home: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool) -> Def {
    Def {
        name,
        unit,
        higher_is_better,
        moves: "",
        home: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    moves: &'static str,
    home: &'static str,
) -> Def {
    Def {
        name,
        unit,
        higher_is_better,
        moves,
        home,
    }
}

pub const END_TO_END: [Def; 6] = [
    e2e("setup_s", "s", false),
    e2e("recall_at_10", "share", true),
    e2e("query_p50_us", "us", false),
    e2e("capacity_qps", "qps", true),
    e2e("index_bytes", "bytes", false),
    e2e("ok_rate", "share", true),
];

const FROZEN: &str = "frozen-serve";
const MUTABLE: &str = "mutable-serve";
const SQ8: &str = "sq8-batch";
const ALL: &str = "all";
const SERVE: &str = "frozen-serve, mutable-serve";

pub const PER_LAYER: [Def; 36] = [
    layer("knn.build_s", "s", false, "setup_s", ALL),
    layer("knn.graph_recall", "share", true, "recall_at_10", ALL),
    layer("core.build_s", "s", false, "setup_s", ALL),
    layer(
        "core.out_degree_mean",
        "edges",
        false,
        "query_p50_us, index_bytes",
        FROZEN,
    ),
    layer("core.reachable_frac", "share", true, "recall_at_10", ALL),
    layer(
        "core.search_us_p50",
        "us",
        false,
        "query_p50_us, capacity_qps",
        "frozen-serve, sq8-batch",
    ),
    layer(
        "core.search_us_p99",
        "us",
        false,
        "serve.query_p99_us",
        FROZEN,
    ),
    layer(
        "core.dists_per_query",
        "count",
        false,
        "query_p50_us, capacity_qps",
        "frozen-serve, sq8-batch",
    ),
    layer(
        "core.hops_per_query",
        "count",
        false,
        "query_p50_us, capacity_qps",
        "frozen-serve, sq8-batch",
    ),
    layer("vectors.dist_f32_ns", "ns", false, "query_p50_us", FROZEN),
    layer("vectors.dist_sq8_ns", "ns", false, "capacity_qps", SQ8),
    layer("vectors.quantize_s", "s", false, "setup_s", SQ8),
    layer("snapshot.write_ms", "ms", false, "setup_s", SQ8),
    layer("snapshot.open_us", "us", false, "setup_s", SQ8),
    layer("snapshot.into_index_us", "us", false, "setup_s", SQ8),
    layer("delta.search_us_p50", "us", false, "query_p50_us", MUTABLE),
    layer(
        "delta.dists_per_query",
        "count",
        false,
        "query_p50_us",
        MUTABLE,
    ),
    layer(
        "delta.insert_us_p50",
        "us",
        false,
        "query_p50_us, capacity_qps",
        MUTABLE,
    ),
    layer(
        "delta.insert_us_p99",
        "us",
        false,
        "serve.query_p99_us",
        MUTABLE,
    ),
    layer(
        "delta.delete_us_p50",
        "us",
        false,
        "query_p50_us, ok_rate",
        MUTABLE,
    ),
    layer(
        "serve.query_p99_us",
        "us",
        false,
        "query_p50_us (its tail)",
        SERVE,
    ),
    layer("serve.slo_qps", "qps", true, "capacity_qps", SERVE),
    layer("serve.roundtrip_us_p50", "us", false, "query_p50_us", SERVE),
    layer(
        "serve.overhead_us",
        "us",
        false,
        "query_p50_us, capacity_qps",
        SERVE,
    ),
    layer(
        "serve.rejected_frac",
        "share",
        false,
        "ok_rate, capacity_qps",
        SERVE,
    ),
    layer(
        "loadgen.late_us_p99",
        "us",
        false,
        "validity of query_p50_us",
        SERVE,
    ),
    layer(
        "loadgen.late_frac",
        "share",
        false,
        "validity of query_p50_us",
        SERVE,
    ),
    layer(
        "trace.overhead_frac",
        "share",
        false,
        "none (reported)",
        ALL,
    ),
    layer(
        "selftime.vectors_ms",
        "ms",
        false,
        "query_p50_us, capacity_qps",
        "frozen-serve, sq8-batch",
    ),
    layer("selftime.knn_ms", "ms", false, "setup_s", ALL),
    layer("selftime.core_build_ms", "ms", false, "setup_s", ALL),
    layer(
        "selftime.core_search_ms",
        "ms",
        false,
        "query_p50_us, capacity_qps",
        "frozen-serve, sq8-batch",
    ),
    layer(
        "selftime.delta_ms",
        "ms",
        false,
        "query_p50_us, setup_s",
        MUTABLE,
    ),
    layer("selftime.snapshot_ms", "ms", false, "setup_s", SQ8),
    layer(
        "selftime.serve_ms",
        "ms",
        false,
        "query_p50_us, capacity_qps",
        SERVE,
    ),
    layer("selftime.bench_ms", "ms", false, "none (harness)", ALL),
];

/// The result line: every metric of `defs`, by name with its unit, taken
/// from `values`. Fails when a metric is missing or not finite.
pub fn result_line(
    defs: &[Def],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(defs.len());
    for d in defs {
        let v = values
            .iter()
            .find(|(n, _)| *n == d.name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", d.name));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

/// A human-readable table of `defs` (to stderr).
pub fn print_table(title: &str, defs: &[Def], values: &Values) {
    eprintln!("\n{title}");
    for d in defs {
        let v = values
            .iter()
            .find(|(n, _)| *n == d.name)
            .map_or(f64::NAN, |&(_, v)| v);
        let dir = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        if d.moves.is_empty() {
            eprintln!(
                "  {:<26} {:>16.4} {:<6} ({dir} is better)",
                d.name, v, d.unit
            );
        } else {
            eprintln!(
                "  {:<26} {:>16.4} {:<6} ({dir}) moves {} | works in {}",
                d.name, v, d.unit, d.moves, d.home
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_every_metric_with_its_unit() {
        let values: Values = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name, i as f64 + 0.5))
            .collect();
        let line = result_line(&END_TO_END, &values, true, 10, 0).unwrap();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"ok_rate\": {\"value\": 5.5, \"unit\": \"share\"}"));
        assert!(result_line(&END_TO_END, &values[1..].to_vec(), true, 1, 0).is_err());
    }

    /// The catalogue here and `BENCHMARK.json` must name the same metrics
    /// with the same units and directions.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json =
            std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"",
                d.name, d.unit
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let entries = compact.matches("\"unit\":").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json has metrics the catalogue lacks"
        );
    }
}
