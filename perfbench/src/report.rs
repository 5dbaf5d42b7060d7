//! Metric tables, output checks, and the printed report.
//!
//! Every run prints human-readable lines first and one JSON object last:
//! `{"correct", "attempted", "failed", "metrics"}`, where `metrics` holds
//! every [`END_TO_END`] metric (untraced run) or every [`PER_LAYER`]
//! metric (traced run), each as `{"value", "unit"}`.

use crate::stats::Summary;
use mqmd_util::metrics::Json;

/// End-to-end metrics: `(name, unit)`. Each workload reports all of them
/// for its own timed operation (see `README.md` for the per-workload
/// meaning).
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_s", "s"),
    ("first_op_s", "s"),
    ("iters_per_op", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. "Per step" means
/// per timed operation of the workload; a layer the workload does not
/// reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rayon.threads", "count"),
    ("rayon.sys_cpu_s", "s"),
    ("rayon.speedup_1t", "x"),
    ("fft.calls_per_step", "count"),
    ("fft.s_per_step", "s"),
    ("fft.us_per_call", "us"),
    ("multigrid.poisson_calls_per_step", "count"),
    ("multigrid.poisson_s_per_step", "s"),
    ("linalg.zheev_k_s", "s"),
    ("linalg.zheev_2k_s", "s"),
    ("linalg.gemm_s_per_step", "s"),
    ("linalg.gemm_gflops", "GFLOP/s"),
    ("linalg.orthonorm_s_per_step", "s"),
    ("dft.hamiltonian_calls_per_step", "count"),
    ("dft.hamiltonian_s_per_step", "s"),
    ("dft.davidson_iters", "count"),
    ("core.scf_iter_s", "s"),
    ("core.domain_solve_s_per_step", "s"),
    ("core.domain_solve_self_frac", "frac"),
    ("core.global_density_s_per_step", "s"),
    ("util.ws_misses_steady", "count"),
    ("util.trace_overhead_frac", "frac"),
    ("util.span_cover_frac", "frac"),
    ("parallel.spawn_s", "s"),
    ("parallel.data_frames", "count"),
    ("parallel.data_bytes", "B"),
    ("parallel.allreduce_s", "s"),
    ("parallel.allgather_s", "s"),
    ("parallel.halo_s", "s"),
    ("parallel.comm_frac", "frac"),
    ("parallel.pingpong_small_us", "us"),
    ("parallel.pingpong_large_ms", "ms"),
    ("parallel.twin_rel_err_allreduce", "frac"),
    ("parallel.stale_frames", "count"),
    ("parallel.deferred_frames", "count"),
];

struct Metric {
    name: &'static str,
    value: f64,
    samples: usize,
    label: String,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    checks_failed: usize,
    /// Operations attempted (MD steps, domain solves or rank sessions).
    pub attempted: u64,
    /// Operations that errored, timed out or failed an output check.
    pub failed: u64,
}

impl Report {
    /// Records a metric from `samples` measurements; `label` names what
    /// it is on this workload (e.g. `qmd.step_s`).
    pub fn set(&mut self, name: &'static str, s: Summary, label: &str) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the metric tables"
        );
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            value: s.median,
            samples: s.n,
            label: label.to_string(),
        });
    }

    /// Records a single measured value.
    pub fn one(&mut self, name: &'static str, value: f64, label: &str) {
        self.set(
            name,
            Summary {
                median: value,
                n: 1,
            },
            label,
        );
    }

    /// Records an output check, printing its outcome.
    pub fn check(&mut self, what: &str, ok: bool, detail: &str) {
        println!(
            "check {:<4} {what}: {detail}",
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            self.checks_failed += 1;
        }
    }

    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.checks_failed == 0 && self.failed == 0 && self.attempted > 0
    }

    /// Prints the metric lines, then the JSON result line over `table`,
    /// and returns whether the run was correct. A metric that was not
    /// measured (its operation failed) or is not finite prints as `null`
    /// and makes the run incorrect.
    pub fn finish(&self, table: &[(&'static str, &'static str)]) -> bool {
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "metric failed_frac = {frac} ({} of {} operations)",
            self.failed, self.attempted
        );
        let mut correct = self.correct();
        let mut out = Vec::new();
        for &(name, unit) in table {
            let (value, line) = match self.metrics.iter().find(|m| m.name == name) {
                Some(m) if m.label.is_empty() => (m.value, format!("(n={})", m.samples)),
                Some(m) => (m.value, format!("(n={})  [{}]", m.samples, m.label)),
                None => (f64::NAN, "(not measured)".to_string()),
            };
            correct &= value.is_finite();
            println!("metric {name} = {value} {unit} {line}");
            out.push((
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            ));
        }
        let doc = Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(out)),
        ]);
        println!("{}", doc.compact());
        correct
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqmd_util::metrics::parse_json;

    fn names(list: &Json) -> Vec<(String, String)> {
        list.as_arr()
            .expect("metric list")
            .iter()
            .map(|m| {
                let get = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name/unit")
                        .to_string()
                };
                (get("name"), get("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let doc = parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(names(doc.get("end_to_end").unwrap()), owned(END_TO_END));
        assert_eq!(names(doc.get("per_layer").unwrap()), owned(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, crate::Workload::NAMES);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
