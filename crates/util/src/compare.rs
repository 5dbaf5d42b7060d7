//! Noise-aware comparison of two profile reports — the perf-regression
//! gate behind the `repro_compare` binary.
//!
//! Two runs of the same benchmark never time identically, so a naive
//! "candidate slower than baseline" check flags noise. This module
//! compares *per-call* kernel means and only declares a regression when
//! the slowdown clears a threshold with both a relative component and a
//! statistical one:
//!
//! ```text
//! threshold = rel_tolerance · mean_base
//!           + noise_sigmas · (std_err_base + std_err_cand)
//! ```
//!
//! The standard errors come straight from the profile (derived from each
//! kernel's latency histogram); a kernel entry without one degrades to
//! the pure relative check. Both readers accept `mqmd-profile-v8` and its
//! predecessor v7 only.
//!
//! Profiles also carry per-phase allocation counters and a directly
//! measured steady-state workspace-miss gauge. With
//! [`CompareConfig::gate_allocs`] set, the gate also diffs those: the
//! per-kernel alloc columns are informational (allocation counts shift
//! with thread count and SCF iteration count), but the steady-state gauge
//! is deterministic by construction, so *any* growth over the baseline
//! hard-fails — re-introducing even one per-iteration allocation in the
//! SCF hot path trips the gate.
//!
//! The `recovery` block carries the fault plane's ledger. With
//! [`CompareConfig::gate_recovery`] set, the gate checks the
//! *candidate's* ledger balances exactly — `injected == recovered +
//! aborted`, so a recovery with no injection behind it fails as surely as
//! an injection nobody handled — and that no abort appears in a profile
//! run at all: an abort while profiling means the pipeline silently lost
//! work.
//!
//! The measured `roofline` block is gated too. With
//! [`CompareConfig::gate_roofline`] set to a fraction-of-peak floor, the
//! gate checks the *candidate's* kernel placements: every kernel in the
//! candidate's roofline block must achieve at least that fraction of its
//! roofline `min(peak_flops, intensity · peak_bw)` — a vectorized kernel
//! quietly falling back to scalar shows up as a fraction collapse long
//! before the noise-aware timing gate would catch it.

use crate::error::Result;
use crate::metrics::{
    kernel_table, recovery_counters, roofline_summary, steady_scf_misses, KernelStats,
};
use std::collections::BTreeMap;

/// Tunable thresholds for [`compare_tables`].
#[derive(Clone, Copy, Debug)]
pub struct CompareConfig {
    /// Allowed relative slowdown of the per-call mean (0.5 = +50%).
    pub rel_tolerance: f64,
    /// Width of the statistical guard band in combined standard errors.
    pub noise_sigmas: f64,
    /// Kernels whose baseline per-call mean is below this (seconds) are
    /// reported but never gated — they sit in timer-resolution noise.
    pub min_mean_secs: f64,
    /// Also gate the steady-state workspace-miss gauge: fail when the
    /// candidate's steady-state SCF miss count grows over the baseline's.
    pub gate_allocs: bool,
    /// Also gate the recovery counters: fail when the candidate's ledger
    /// does not balance exactly (injected ≠ recovered + aborted) or any
    /// fault aborted during the profile run.
    pub gate_recovery: bool,
    /// Fraction-of-peak floor for the roofline gate: fail when any
    /// kernel in the candidate's roofline block achieves less than this
    /// fraction of its roofline, or when the candidate lacks the block
    /// while gating. `None` disables the gate.
    pub gate_roofline: Option<f64>,
}

impl Default for CompareConfig {
    fn default() -> Self {
        Self {
            rel_tolerance: 0.5,
            noise_sigmas: 3.0,
            min_mean_secs: 1e-6,
            gate_allocs: false,
            gate_recovery: false,
            gate_roofline: None,
        }
    }
}

/// Gate outcome for one kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within threshold.
    Ok,
    /// Candidate per-call mean exceeded baseline by more than the
    /// threshold.
    Regressed,
    /// Candidate per-call mean improved by more than the threshold.
    Improved,
    /// Baseline mean below `min_mean_secs`; informational only.
    TooSmall,
    /// Kernel present in only one of the two profiles.
    Unpaired,
}

/// Per-kernel comparison row.
#[derive(Clone, Debug)]
pub struct KernelDelta {
    /// Kernel name.
    pub name: String,
    /// Baseline per-call mean (seconds); 0 when unpaired.
    pub base_mean: f64,
    /// Candidate per-call mean (seconds); 0 when unpaired.
    pub cand_mean: f64,
    /// Absolute slowdown threshold applied (seconds).
    pub threshold: f64,
    /// Baseline heap allocations per call.
    pub base_allocs: f64,
    /// Candidate heap allocations per call.
    pub cand_allocs: f64,
    /// Gate outcome.
    pub verdict: Verdict,
}

impl KernelDelta {
    /// Relative change `(cand − base) / base` (0 when base is 0).
    pub fn rel_change(&self) -> f64 {
        if self.base_mean > 0.0 {
            (self.cand_mean - self.base_mean) / self.base_mean
        } else {
            0.0
        }
    }
}

/// Outcome of the steady-state allocation gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocGate {
    /// Baseline steady-state SCF workspace misses.
    pub base: u64,
    /// Candidate steady-state SCF workspace misses.
    pub cand: u64,
    /// Whether the gate fails (candidate grew over baseline).
    pub failed: bool,
}

/// Outcome of the recovery gate (an absolute check on the candidate,
/// not a diff against the baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryGate {
    /// Faults the candidate's plane injected.
    pub injected: u64,
    /// Recovery rungs that handled a failure.
    pub recovered: u64,
    /// Failures surfaced as typed errors.
    pub aborted: u64,
    /// Whether the gate fails (ledger unbalanced, an abort occurred, or
    /// the candidate stopped emitting the block while gating).
    pub failed: bool,
}

/// One kernel's outcome under the roofline gate (an absolute check on
/// the candidate, like the recovery gate).
#[derive(Clone, Debug, PartialEq)]
pub struct RooflineRow {
    /// Kernel name.
    pub name: String,
    /// Sustained GFLOP/s the kernel achieved.
    pub achieved_gflops: f64,
    /// The roofline at the kernel's arithmetic intensity.
    pub roofline_gflops: f64,
    /// Achieved fraction of the roofline.
    pub fraction_of_peak: f64,
    /// Whether this kernel fell under the floor.
    pub failed: bool,
}

/// Outcome of the roofline gate.
#[derive(Clone, Debug, PartialEq)]
pub struct RooflineGate {
    /// The fraction-of-peak floor applied.
    pub floor: f64,
    /// Per-kernel placements from the candidate's roofline block (empty
    /// when the candidate lacks the block).
    pub rows: Vec<RooflineRow>,
    /// Whether the gate fails (a kernel under the floor, or the candidate
    /// stopped emitting the block while gating).
    pub failed: bool,
}

/// Full comparison result.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// One row per kernel seen in either profile, sorted by name.
    pub rows: Vec<KernelDelta>,
    /// Steady-state allocation gate, when `gate_allocs` was requested and
    /// both profiles carry the gauge.
    pub alloc_gate: Option<AllocGate>,
    /// Recovery gate, when `gate_recovery` was requested.
    pub recovery_gate: Option<RecoveryGate>,
    /// Roofline gate, when `gate_roofline` was requested.
    pub roofline_gate: Option<RooflineGate>,
}

impl CompareReport {
    /// Number of kernels that regressed.
    pub fn regressions(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regressed)
            .count()
    }

    /// Whether the gate should fail (timing regression, steady-state
    /// allocation growth, an unbalanced recovery ledger, or a kernel
    /// under the roofline floor).
    pub fn has_regressions(&self) -> bool {
        self.regressions() > 0
            || self.alloc_gate.is_some_and(|g| g.failed)
            || self.recovery_gate.is_some_and(|g| g.failed)
            || self.roofline_gate.as_ref().is_some_and(|g| g.failed)
    }

    /// Renders the human-readable regression table, including the per-call
    /// allocation diff when either profile carries allocation counters.
    pub fn table(&self) -> String {
        let with_allocs = self
            .rows
            .iter()
            .any(|r| r.base_allocs > 0.0 || r.cand_allocs > 0.0);
        let mut out = String::from(
            "kernel                    base/call      cand/call     change    threshold  verdict",
        );
        if with_allocs {
            out.push_str("    alloc/call (base -> cand)");
        }
        out.push('\n');
        for r in &self.rows {
            let verdict = match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::Improved => "improved",
                Verdict::TooSmall => "too-small",
                Verdict::Unpaired => "unpaired",
            };
            out.push_str(&format!(
                "{:<24} {:>11.3e} s {:>11.3e} s {:>+8.1}% {:>11.3e}  {}",
                r.name,
                r.base_mean,
                r.cand_mean,
                r.rel_change() * 100.0,
                r.threshold,
                verdict
            ));
            if with_allocs {
                out.push_str(&format!(
                    "{:>12.1} -> {:<8.1}",
                    r.base_allocs, r.cand_allocs
                ));
            }
            out.push('\n');
        }
        if let Some(g) = self.alloc_gate {
            out.push_str(&format!(
                "\nsteady-state SCF workspace misses: {} -> {}  [{}]\n",
                g.base,
                g.cand,
                if g.failed { "ALLOC REGRESSED" } else { "ok" }
            ));
        }
        if let Some(g) = self.recovery_gate {
            out.push_str(&format!(
                "\nrecovery ledger: {} injected, {} recovered, {} aborted  [{}]\n",
                g.injected,
                g.recovered,
                g.aborted,
                if g.failed { "RECOVERY FAILED" } else { "ok" }
            ));
        }
        if let Some(g) = &self.roofline_gate {
            out.push_str(&format!(
                "\nroofline gate (floor {:.1}% of peak):\n",
                g.floor * 100.0
            ));
            if g.rows.is_empty() {
                out.push_str("  candidate carries no roofline block  [ROOFLINE FAILED]\n");
            }
            for r in &g.rows {
                out.push_str(&format!(
                    "  {:<16} {:>8.2} GF/s of {:>8.2} GF/s roofline = {:>5.1}%  [{}]\n",
                    r.name,
                    r.achieved_gflops,
                    r.roofline_gflops,
                    r.fraction_of_peak * 100.0,
                    if r.failed { "UNDER FLOOR" } else { "ok" }
                ));
            }
        }
        out
    }
}

fn per_call_mean(s: &KernelStats) -> f64 {
    if s.calls > 0 {
        s.seconds / s.calls as f64
    } else {
        0.0
    }
}

/// Compares two kernel tables under `cfg`.
pub fn compare_tables(
    base: &BTreeMap<String, KernelStats>,
    cand: &BTreeMap<String, KernelStats>,
    cfg: &CompareConfig,
) -> CompareReport {
    let mut names: Vec<&String> = base.keys().chain(cand.keys()).collect();
    names.sort();
    names.dedup();
    let mut rows = Vec::new();
    for name in names {
        let row = match (base.get(name), cand.get(name)) {
            (Some(b), Some(c)) => {
                let mb = per_call_mean(b);
                let mc = per_call_mean(c);
                let threshold =
                    cfg.rel_tolerance * mb + cfg.noise_sigmas * (b.std_err_secs + c.std_err_secs);
                let verdict = if mb < cfg.min_mean_secs {
                    Verdict::TooSmall
                } else if mc - mb > threshold {
                    Verdict::Regressed
                } else if mb - mc > threshold {
                    Verdict::Improved
                } else {
                    Verdict::Ok
                };
                KernelDelta {
                    name: name.clone(),
                    base_mean: mb,
                    cand_mean: mc,
                    threshold,
                    base_allocs: b.allocs_per_call(),
                    cand_allocs: c.allocs_per_call(),
                    verdict,
                }
            }
            (b, c) => KernelDelta {
                name: name.clone(),
                base_mean: b.map(per_call_mean).unwrap_or(0.0),
                cand_mean: c.map(per_call_mean).unwrap_or(0.0),
                threshold: 0.0,
                base_allocs: b.map(KernelStats::allocs_per_call).unwrap_or(0.0),
                cand_allocs: c.map(KernelStats::allocs_per_call).unwrap_or(0.0),
                verdict: Verdict::Unpaired,
            },
        };
        rows.push(row);
    }
    CompareReport {
        rows,
        alloc_gate: None,
        recovery_gate: None,
        roofline_gate: None,
    }
}

/// Parses two profile documents (schema v7 or v8) and compares them.
/// With [`CompareConfig::gate_allocs`], the steady-state workspace-miss
/// gauges are also diffed; a candidate gauge above the baseline's fails the
/// gate. A baseline without the gauge skips the allocation gate; a
/// candidate without it while gating is requested fails it — the candidate
/// pipeline stopped measuring the thing being gated.
pub fn compare_profiles(base: &str, cand: &str, cfg: &CompareConfig) -> Result<CompareReport> {
    let mut report = compare_tables(&kernel_table(base)?, &kernel_table(cand)?, cfg);
    if cfg.gate_allocs {
        if let Some(base_gauge) = steady_scf_misses(base)? {
            let cand_gauge = steady_scf_misses(cand)?;
            report.alloc_gate = Some(AllocGate {
                base: base_gauge,
                cand: cand_gauge.unwrap_or(u64::MAX),
                failed: cand_gauge.is_none_or(|c| c > base_gauge),
            });
        }
    }
    if cfg.gate_recovery {
        report.recovery_gate = Some(match recovery_counters(cand)? {
            Some(rc) => RecoveryGate {
                injected: rc.injected,
                recovered: rc.recovered,
                aborted: rc.aborted,
                failed: rc.aborted > 0 || rc.injected != rc.recovered + rc.aborted,
            },
            // Candidate stopped emitting the block while gating: fail —
            // the pipeline stopped measuring the thing being gated.
            None => RecoveryGate {
                injected: 0,
                recovered: 0,
                aborted: 0,
                failed: true,
            },
        });
    }
    if let Some(floor) = cfg.gate_roofline {
        report.roofline_gate = Some(match roofline_summary(cand)? {
            Some(r) => {
                let rows: Vec<RooflineRow> = r
                    .kernels
                    .iter()
                    .map(|(name, k)| RooflineRow {
                        name: name.clone(),
                        achieved_gflops: k.achieved_gflops,
                        roofline_gflops: k.roofline_gflops,
                        fraction_of_peak: k.fraction_of_peak,
                        failed: k.fraction_of_peak < floor,
                    })
                    .collect();
                let failed = rows.is_empty() || rows.iter().any(|r| r.failed);
                RooflineGate {
                    floor,
                    rows,
                    failed,
                }
            }
            // Same policy as the other absolute gates: gating a candidate
            // that stopped measuring fails.
            None => RooflineGate {
                floor,
                rows: Vec::new(),
                failed: true,
            },
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(calls: u64, seconds: f64, std_err: f64) -> KernelStats {
        KernelStats {
            calls,
            seconds,
            std_err_secs: std_err,
            ..Default::default()
        }
    }

    fn table(entries: &[(&str, KernelStats)]) -> BTreeMap<String, KernelStats> {
        entries.iter().map(|(n, s)| (n.to_string(), *s)).collect()
    }

    #[test]
    fn identical_profiles_pass() {
        let t = table(&[
            ("dgemm", stats(10, 1.0, 1e-3)),
            ("fft", stats(100, 0.5, 1e-4)),
        ]);
        let report = compare_tables(&t, &t, &CompareConfig::default());
        assert!(!report.has_regressions());
        assert!(report.rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn doubled_kernel_regresses() {
        let base = table(&[("dgemm", stats(10, 1.0, 1e-3))]);
        let cand = table(&[("dgemm", stats(10, 2.0, 1e-3))]);
        let report = compare_tables(&base, &cand, &CompareConfig::default());
        assert!(report.has_regressions());
        assert_eq!(report.rows[0].verdict, Verdict::Regressed);
        assert!(report.table().contains("REGRESSED"));
    }

    #[test]
    fn noise_band_absorbs_small_shifts() {
        // +20% shift is inside the default 50% relative tolerance.
        let base = table(&[("fft", stats(100, 0.50, 1e-4))]);
        let cand = table(&[("fft", stats(100, 0.60, 1e-4))]);
        let report = compare_tables(&base, &cand, &CompareConfig::default());
        assert!(!report.has_regressions());
        // With zero relative tolerance the same shift must exceed the
        // sigma band to regress.
        let tight = CompareConfig {
            rel_tolerance: 0.0,
            noise_sigmas: 3.0,
            ..Default::default()
        };
        let report = compare_tables(&base, &cand, &tight);
        assert!(report.has_regressions());
        // ...unless the runs were noisy enough that 3σ covers it.
        let noisy_base = table(&[("fft", stats(100, 0.50, 4e-4))]);
        let noisy_cand = table(&[("fft", stats(100, 0.60, 4e-4))]);
        let report = compare_tables(&noisy_base, &noisy_cand, &tight);
        assert!(!report.has_regressions());
    }

    #[test]
    fn tiny_kernels_and_unpaired_never_gate() {
        let base = table(&[
            ("noise", stats(1000, 1e-7, 0.0)),
            ("removed", stats(5, 1.0, 0.0)),
        ]);
        let cand = table(&[
            ("noise", stats(1000, 1e-4, 0.0)),
            ("added", stats(5, 1.0, 0.0)),
        ]);
        let report = compare_tables(&base, &cand, &CompareConfig::default());
        assert!(!report.has_regressions());
        let verdicts: BTreeMap<_, _> = report
            .rows
            .iter()
            .map(|r| (r.name.clone(), r.verdict))
            .collect();
        assert_eq!(verdicts["noise"], Verdict::TooSmall);
        assert_eq!(verdicts["removed"], Verdict::Unpaired);
        assert_eq!(verdicts["added"], Verdict::Unpaired);
    }

    #[test]
    fn improvement_is_reported_not_gated() {
        let base = table(&[("dgemm", stats(10, 2.0, 1e-3))]);
        let cand = table(&[("dgemm", stats(10, 0.5, 1e-3))]);
        let report = compare_tables(&base, &cand, &CompareConfig::default());
        assert!(!report.has_regressions());
        assert_eq!(report.rows[0].verdict, Verdict::Improved);
    }

    fn profile_doc(allocs: u64, gauge: Option<u64>) -> String {
        let alloc_block = match gauge {
            Some(g) => format!(
                ", \"alloc\": {{\"workspace_hits\": 10, \"workspace_misses\": {allocs}, \
                 \"workspace_miss_bytes\": 0, \"steady_scf_workspace_misses\": {g}}}"
            ),
            None => String::new(),
        };
        format!(
            "{{\"schema\": \"mqmd-profile-v8\", \"kernels\": {{\
             \"scf_iter\": {{\"calls\": 10, \"seconds\": 1.0, \"flops\": 100, \
             \"alloc_count\": {allocs}, \"alloc_bytes\": 0}}}}{alloc_block}}}"
        )
    }

    #[test]
    fn alloc_gate_passes_when_steady_misses_do_not_grow() {
        let cfg = CompareConfig {
            gate_allocs: true,
            ..Default::default()
        };
        let base = profile_doc(40, Some(0));
        let cand = profile_doc(44, Some(0));
        let report = compare_profiles(&base, &cand, &cfg).unwrap();
        let gate = report.alloc_gate.expect("gauge present in both");
        assert!(!gate.failed);
        assert!(!report.has_regressions());
        // Per-kernel alloc columns are informational, shown in the table.
        assert!(report.table().contains("alloc/call"));
        assert!(report.table().contains("steady-state SCF workspace misses"));
    }

    #[test]
    fn alloc_gate_fails_on_steady_miss_growth() {
        let cfg = CompareConfig {
            gate_allocs: true,
            ..Default::default()
        };
        let base = profile_doc(40, Some(0));
        let cand = profile_doc(40, Some(3));
        let report = compare_profiles(&base, &cand, &cfg).unwrap();
        assert!(report.alloc_gate.unwrap().failed);
        assert!(report.has_regressions(), "alloc growth fails the gate");
        assert_eq!(report.regressions(), 0, "no timing regression involved");
        assert!(report.table().contains("ALLOC REGRESSED"));
    }

    #[test]
    fn alloc_gate_skips_gaugeless_baseline_but_requires_candidate_gauge() {
        let cfg = CompareConfig {
            gate_allocs: true,
            ..Default::default()
        };
        // Baseline without the gauge: nothing to gate against.
        let bare_base = profile_doc(0, None);
        let cand = profile_doc(40, Some(0));
        let report = compare_profiles(&bare_base, &cand, &cfg).unwrap();
        assert!(report.alloc_gate.is_none());
        assert!(!report.has_regressions());
        // Gauged baseline but candidate stopped measuring: fail.
        let base = profile_doc(40, Some(0));
        let bare_cand = profile_doc(0, None);
        let report = compare_profiles(&base, &bare_cand, &cfg).unwrap();
        assert!(report.alloc_gate.unwrap().failed);
        // And without the flag the gauges are ignored entirely.
        let report = compare_profiles(&base, &bare_cand, &CompareConfig::default()).unwrap();
        assert!(report.alloc_gate.is_none());
    }

    fn recovery_doc(injected: u64, recovered: u64, aborted: u64) -> String {
        format!(
            "{{\"schema\": \"mqmd-profile-v8\", \"kernels\": {{}}, \
             \"recovery\": {{\"faults_injected\": {injected}, \
             \"faults_recovered\": {recovered}, \"faults_aborted\": {aborted}, \
             \"recompute_seconds\": 0.0, \"by_kind\": {{}}, \"by_action\": {{}}}}}}"
        )
    }

    fn recovery_gate_failed(cand: &str) -> bool {
        let cfg = CompareConfig {
            gate_recovery: true,
            ..Default::default()
        };
        let report = compare_profiles(&recovery_doc(0, 0, 0), cand, &cfg).unwrap();
        report.recovery_gate.unwrap().failed
    }

    #[test]
    fn recovery_gate_passes_balanced_ledger() {
        let cfg = CompareConfig {
            gate_recovery: true,
            ..Default::default()
        };
        let base = recovery_doc(0, 0, 0);
        // Healthy idle run: all zeros.
        let report = compare_profiles(&base, &recovery_doc(0, 0, 0), &cfg).unwrap();
        assert!(!report.recovery_gate.unwrap().failed);
        assert!(!report.has_regressions());
        assert!(report.table().contains("recovery ledger"));
        // Every injected fault recovered, one rung each.
        assert!(!recovery_gate_failed(&recovery_doc(3, 3, 0)));
    }

    #[test]
    fn recovery_gate_fails_on_over_recovery() {
        // A recovery with no injection behind it means a fault came from
        // outside the ledger: the gate must not wave it through.
        assert!(recovery_gate_failed(&recovery_doc(3, 5, 0)));
        // The shape of a profile whose kill drill booked its respawn but
        // not its kill: 0 injected, 1 recovered.
        assert!(recovery_gate_failed(&recovery_doc(0, 1, 0)));
    }

    fn roofline_doc(fraction: f64) -> String {
        format!(
            "{{\"schema\": \"mqmd-profile-v8\", \"kernels\": {{}}, \
             \"roofline\": {{\"peak_gflops\": 100.0, \"peak_bw_gbps\": 20.0, \
             \"kernels\": {{\"gemm\": {{\"achieved_gflops\": {a}, \
             \"intensity_flops_per_byte\": 10.0, \"roofline_gflops\": 100.0, \
             \"fraction_of_peak\": {fraction}}}}}}}}}",
            a = fraction * 100.0
        )
    }

    #[test]
    fn roofline_gate_applies_fraction_floor() {
        let cfg = CompareConfig {
            gate_roofline: Some(0.1),
            ..Default::default()
        };
        let base = roofline_doc(0.5);
        // Above the floor: passes.
        let report = compare_profiles(&base, &roofline_doc(0.5), &cfg).unwrap();
        let gate = report.roofline_gate.as_ref().unwrap();
        assert!(!gate.failed);
        assert!(!report.has_regressions());
        assert!(report.table().contains("roofline gate"));
        // Under the floor: fails, and the row is marked.
        let report = compare_profiles(&base, &roofline_doc(0.05), &cfg).unwrap();
        assert!(report.roofline_gate.as_ref().unwrap().failed);
        assert!(report.has_regressions());
        assert!(report.table().contains("UNDER FLOOR"));
        // A candidate without the block fails while gating...
        let bare_cand = "{\"schema\": \"mqmd-profile-v8\", \"kernels\": {}}";
        let report = compare_profiles(&base, bare_cand, &cfg).unwrap();
        assert!(report.roofline_gate.as_ref().unwrap().failed);
        // ...and is ignored without the flag.
        let report = compare_profiles(&base, bare_cand, &CompareConfig::default()).unwrap();
        assert!(report.roofline_gate.is_none());
    }

    #[test]
    fn recovery_gate_fails_on_abort_or_unbalanced_ledger() {
        let cfg = CompareConfig {
            gate_recovery: true,
            ..Default::default()
        };
        let base = recovery_doc(0, 0, 0);
        // An abort during a profile run fails.
        let report = compare_profiles(&base, &recovery_doc(3, 2, 1), &cfg).unwrap();
        assert!(report.recovery_gate.unwrap().failed);
        assert!(report.has_regressions());
        assert!(report.table().contains("RECOVERY FAILED"));
        // An injected fault neither recovered nor aborted escaped.
        assert!(recovery_gate_failed(&recovery_doc(3, 2, 0)));
        // A candidate that stopped emitting the block fails too...
        assert!(recovery_gate_failed(
            "{\"schema\": \"mqmd-profile-v8\", \"kernels\": {}}"
        ));
        // ...and one whose block lost its counts is invalid input.
        let empty = "{\"schema\": \"mqmd-profile-v8\", \"kernels\": {}, \"recovery\": {}}";
        assert!(compare_profiles(&base, empty, &cfg).is_err());
        // Without the flag the ledger is ignored.
        let report =
            compare_profiles(&base, &recovery_doc(3, 2, 1), &CompareConfig::default()).unwrap();
        assert!(report.recovery_gate.is_none());
    }
}
