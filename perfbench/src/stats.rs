//! Sample summaries and span self-time accounting.

use mqmd_util::trace::TraceNode;

/// Median and sample count of a set of measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median (mean of the two middle values for an even count).
    pub median: f64,
    /// Number of samples.
    pub n: usize,
}

/// Summarises `samples`; `None` when there are none or one is not finite.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    let median = if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    };
    Some(Summary { median, n: v.len() })
}

/// One node of a span tree, flattened: its path from the root, entry
/// count, inclusive wall time and the part of it no child span covers.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRow {
    /// `parent/child/...` path below the root.
    pub path: String,
    /// Times the span was entered.
    pub calls: u64,
    /// Inclusive wall time, seconds (summed over entries and threads).
    pub wall_s: f64,
    /// Wall time not covered by child spans, seconds.
    pub self_s: f64,
    /// Whether the span has child spans.
    pub leaf: bool,
}

/// Flattens `root` (whose own entry is not a span) depth-first into rows.
pub fn span_rows(root: &TraceNode) -> Vec<SpanRow> {
    fn walk(node: &TraceNode, prefix: &str, out: &mut Vec<SpanRow>) {
        let path = if prefix.is_empty() {
            node.name.clone()
        } else {
            format!("{prefix}/{}", node.name)
        };
        out.push(SpanRow {
            path: path.clone(),
            calls: node.calls,
            wall_s: node.wall_secs,
            self_s: node.self_wall_secs(),
            leaf: node.children.is_empty(),
        });
        for c in &node.children {
            walk(c, &path, out);
        }
    }
    let mut out = Vec::new();
    for c in &root.children {
        walk(c, "", &mut out);
    }
    out
}

/// Share of traced span time that named leaf spans account for:
/// leaf wall time over leaf wall time plus the self time of every span
/// that has children (time a parent spends outside any named child).
/// Counts thread-seconds, so concurrent spans weigh by their threads.
pub fn leaf_cover_frac(rows: &[SpanRow]) -> f64 {
    let leaf: f64 = rows.iter().filter(|r| r.leaf).map(|r| r.wall_s).sum();
    let unnamed: f64 = rows.iter().filter(|r| !r.leaf).map(|r| r.self_s).sum();
    if leaf + unnamed > 0.0 {
        leaf / (leaf + unnamed)
    } else {
        0.0
    }
}

/// Calls, inclusive wall and self time summed over every span named
/// `name` anywhere in `rows`.
pub fn by_name(rows: &[SpanRow], name: &str) -> (u64, f64, f64) {
    rows.iter()
        .filter(|r| r.path.rsplit('/').next() == Some(name))
        .fold((0, 0.0, 0.0), |(c, w, s), r| {
            (c + r.calls, w + r.wall_s, s + r.self_s)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqmd_util::hist::HistSnapshot;

    fn node(name: &str, calls: u64, wall: f64, children: Vec<TraceNode>) -> TraceNode {
        TraceNode {
            name: name.to_string(),
            calls,
            wall_secs: wall,
            flops: 0,
            bytes: 0,
            comm_msgs: 0,
            comm_bytes: 0,
            comm_cost_secs: 0.0,
            alloc_count: 0,
            alloc_bytes: 0,
            hist: HistSnapshot::empty(),
            children,
        }
    }

    /// step(10 s) ⊃ { solve(6 s) ⊃ { fft(2 s), gemm(1 s) }, fft(1 s) }.
    fn synthetic() -> TraceNode {
        let solve = node(
            "solve",
            2,
            6.0,
            vec![node("fft", 40, 2.0, vec![]), node("gemm", 8, 1.0, vec![])],
        );
        let step = node("step", 1, 10.0, vec![solve, node("fft", 5, 1.0, vec![])]);
        node("root", 0, 0.0, vec![step])
    }

    #[test]
    fn self_time_is_wall_minus_children() {
        let rows = span_rows(&synthetic());
        let paths: Vec<&str> = rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "step",
                "step/solve",
                "step/solve/fft",
                "step/solve/gemm",
                "step/fft"
            ]
        );
        assert_eq!(rows[0].self_s, 3.0);
        assert_eq!(rows[1].self_s, 3.0);
        assert_eq!(rows[2].self_s, 2.0);
        assert!(rows[2].leaf && !rows[1].leaf);
    }

    #[test]
    fn self_time_clamps_concurrent_children_at_zero() {
        // Two threads' children sum past their parent's wall.
        let root = node(
            "root",
            0,
            0.0,
            vec![node("par", 1, 1.0, vec![node("k", 2, 1.8, vec![])])],
        );
        assert_eq!(span_rows(&root)[0].self_s, 0.0);
    }

    #[test]
    fn by_name_sums_every_occurrence() {
        let rows = span_rows(&synthetic());
        assert_eq!(by_name(&rows, "fft"), (45, 3.0, 3.0));
        assert_eq!(by_name(&rows, "solve"), (2, 6.0, 3.0));
        assert_eq!(by_name(&rows, "absent"), (0, 0.0, 0.0));
    }

    #[test]
    fn leaf_cover_counts_unnamed_parent_time() {
        // Leaves: 2 + 1 + 1 = 4 s; unnamed parent self time 3 + 3 = 6 s.
        let rows = span_rows(&synthetic());
        assert!((leaf_cover_frac(&rows) - 0.4).abs() < 1e-15);
        assert_eq!(leaf_cover_frac(&[]), 0.0);
    }

    #[test]
    fn summary_reports_median_and_count() {
        assert_eq!(
            summarize(&[3.0, 1.0, 2.0]),
            Some(Summary { median: 2.0, n: 3 })
        );
        assert_eq!(
            summarize(&[4.0, 1.0, 3.0, 2.0]),
            Some(Summary { median: 2.5, n: 4 })
        );
        assert_eq!(summarize(&[7.5]).map(|s| s.median), Some(7.5));
        assert_eq!(summarize(&[]), None);
        assert_eq!(summarize(&[1.0, f64::NAN]), None);
    }
}
