//! Measured kernel timings → machine model.
//!
//! The scaling predictors in [`crate::scaling`] need per-domain kernel
//! times. Rather than hand-entered constants, those timings come from a
//! `BENCH_profile.json` document written by the `repro_profile` binary,
//! which runs the repository's real LDC-DFT kernels under the
//! [`mqmd_util::trace`] spans and serialises the resulting per-kernel
//! aggregates. This module reads such a document back and constructs the
//! machine models from it.

use crate::scaling::{StrongScalingModel, WeakScalingModel};
use mqmd_util::metrics::{kernel_table, parse_json, KernelStats};
use mqmd_util::{MqmdError, Result};
use std::collections::BTreeMap;

/// Default file name the profiling binary writes and the repro binaries
/// read.
pub const PROFILE_PATH: &str = "BENCH_profile.json";

/// Top-level profile key holding the dedicated Fig 5 (64-atom SiC)
/// single-domain solve time, kept separate from the `domain_solve` span
/// aggregate (which also counts the much smaller QMD-step domains).
pub const FIG5_DOMAIN_KEY: &str = "domain_solve_fig5_secs";

/// A parsed kernel-timing profile.
#[derive(Clone, Debug)]
pub struct MeasuredProfile {
    kernels: BTreeMap<String, KernelStats>,
    fig5_domain_secs: Option<f64>,
}

impl MeasuredProfile {
    /// Parses a profile document (`mqmd-profile-v8` or v7).
    pub fn from_json(text: &str) -> Result<Self> {
        let kernels = kernel_table(text)?;
        let fig5_domain_secs = parse_json(text)?
            .get(FIG5_DOMAIN_KEY)
            .and_then(|v| v.as_f64())
            .filter(|&t| t > 0.0);
        Ok(Self {
            kernels,
            fig5_domain_secs,
        })
    }

    /// Reads and parses a profile file.
    pub fn load(path: &str) -> Result<Self> {
        let text =
            std::fs::read_to_string(path).map_err(|e| MqmdError::Io(format!("{path}: {e}")))?;
        Self::from_json(&text)
    }

    /// Stats for one kernel span, if the profile recorded it.
    pub fn kernel(&self, name: &str) -> Option<&KernelStats> {
        self.kernels.get(name)
    }

    /// All recorded kernels (name → aggregate).
    pub fn kernels(&self) -> &BTreeMap<String, KernelStats> {
        &self.kernels
    }

    /// Measured wall seconds of one domain Kohn–Sham solve — the
    /// `t_domain` the weak-scaling model consumes. Prefers the dedicated
    /// Fig 5 measurement ([`FIG5_DOMAIN_KEY`]), then the `domain_solve`
    /// span aggregate, then `scf_iter`.
    pub fn domain_solve_seconds(&self) -> Option<f64> {
        if let Some(t) = self.fig5_domain_secs {
            return Some(t);
        }
        for name in ["domain_solve", "scf_iter"] {
            if let Some(k) = self.kernels.get(name) {
                if k.calls > 0 && k.seconds > 0.0 {
                    return Some(k.secs_per_call());
                }
            }
        }
        None
    }

    /// Weak-scaling (Fig 5) model with `t_domain` taken from this profile.
    pub fn weak_scaling_model(&self) -> Option<WeakScalingModel> {
        self.domain_solve_seconds().map(WeakScalingModel::fig5)
    }

    /// Strong-scaling (Fig 6) model whose total work is derived from this
    /// profile's measured per-domain solve time.
    pub fn strong_scaling_model(&self) -> Option<StrongScalingModel> {
        self.domain_solve_seconds()
            .map(StrongScalingModel::fig6_from_measured)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(domain_secs: f64, calls: u64) -> String {
        format!(
            r#"{{
  "schema": "mqmd-profile-v8",
  "trace": {{"name": "root", "calls": 1, "wall_secs": 1.0, "flops": 0,
             "bytes": 0, "comm_msgs": 0, "comm_bytes": 0,
             "comm_cost_secs": 0.0, "children": []}},
  "kernels": {{
    "gemm": {{"calls": 10, "seconds": 0.5, "flops": 1000000, "gflops": 0.002}},
    "domain_solve": {{"calls": {calls}, "seconds": {domain_secs}, "flops": 0, "gflops": 0}}
  }}
}}"#
        )
    }

    #[test]
    fn profile_feeds_the_scaling_models() {
        let p = MeasuredProfile::from_json(&doc(6.0, 3)).unwrap();
        assert_eq!(p.kernel("gemm").unwrap().calls, 10);
        assert!((p.domain_solve_seconds().unwrap() - 2.0).abs() < 1e-12);
        let weak = p.weak_scaling_model().unwrap();
        assert!((weak.t_domain - 2.0).abs() < 1e-12);
        let strong = p.strong_scaling_model().unwrap();
        assert!(strong.work_core_seconds > 0.0);
    }

    #[test]
    fn dedicated_fig5_measurement_wins_over_span_aggregate() {
        let text = r#"{
  "schema": "mqmd-profile-v8",
  "domain_solve_fig5_secs": 68.5,
  "kernels": {
    "domain_solve": {"calls": 83, "seconds": 75.0, "flops": 0, "gflops": 0}
  }
}"#;
        let p = MeasuredProfile::from_json(text).unwrap();
        assert!((p.domain_solve_seconds().unwrap() - 68.5).abs() < 1e-12);
    }

    #[test]
    fn missing_kernels_yield_none() {
        let text = r#"{"schema": "mqmd-profile-v8", "kernels": {}}"#;
        let p = MeasuredProfile::from_json(text).unwrap();
        assert!(p.domain_solve_seconds().is_none());
        assert!(p.weak_scaling_model().is_none());
    }

    #[test]
    fn wrong_schema_rejected() {
        assert!(MeasuredProfile::from_json(r#"{"schema": "v0", "kernels": {}}"#).is_err());
    }
}
