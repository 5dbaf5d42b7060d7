//! Exit-code contract of the `repro_compare` perf gate: 0 on identical
//! profiles, 1 when a kernel's per-call mean is inflated 2×, 2 on
//! invalid input — exercised against the real binary, as CI runs it.

use std::path::PathBuf;
use std::process::Command;

fn profile_fixture(gemm_seconds: f64) -> String {
    format!(
        r#"{{
  "schema": "mqmd-profile-v8",
  "kernels": {{
    "gemm": {{
      "calls": 10, "seconds": {gemm_seconds}, "flops": 1000000,
      "p50_secs": 0.1, "p95_secs": 0.12, "p99_secs": 0.13,
      "std_err_secs": 0.001
    }},
    "fft": {{
      "calls": 100, "seconds": 0.5, "flops": 500000,
      "p50_secs": 0.005, "p95_secs": 0.006, "p99_secs": 0.007,
      "std_err_secs": 0.0001
    }}
  }}
}}"#
    )
}

fn write_fixture(name: &str, content: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("mqmd_compare_gate_{name}"));
    std::fs::write(&path, content).expect("write fixture");
    path
}

fn run_compare(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_compare"))
        .args(args)
        .output()
        .expect("run repro_compare");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().unwrap_or(-1), text)
}

#[test]
fn identical_profiles_exit_zero() {
    let base = write_fixture("base_ok.json", &profile_fixture(1.0));
    let cand = write_fixture("cand_ok.json", &profile_fixture(1.0));
    let (code, text) = run_compare(&[base.to_str().unwrap(), cand.to_str().unwrap()]);
    assert_eq!(code, 0, "output:\n{text}");
    assert!(text.contains("no regressions"), "output:\n{text}");
}

#[test]
fn doubled_kernel_exits_nonzero() {
    let base = write_fixture("base_2x.json", &profile_fixture(1.0));
    let cand = write_fixture("cand_2x.json", &profile_fixture(2.0));
    let (code, text) = run_compare(&[base.to_str().unwrap(), cand.to_str().unwrap()]);
    assert_eq!(code, 1, "output:\n{text}");
    assert!(text.contains("REGRESSED"), "output:\n{text}");
    assert!(text.contains("gemm"), "output:\n{text}");

    // A generous relative tolerance waves the same inflation through —
    // the CI knob for noisy shared runners.
    let (code, text) = run_compare(&[
        base.to_str().unwrap(),
        cand.to_str().unwrap(),
        "--rel-tol",
        "3.0",
    ]);
    assert_eq!(code, 0, "output:\n{text}");
}

#[test]
fn invalid_input_exits_two() {
    let bad = write_fixture("bad.json", "not json at all");
    let ok = write_fixture("ok.json", &profile_fixture(1.0));
    let (code, _) = run_compare(&[bad.to_str().unwrap(), ok.to_str().unwrap()]);
    assert_eq!(code, 2);
    let (code, _) = run_compare(&[ok.to_str().unwrap(), "/nonexistent/profile.json"]);
    assert_eq!(code, 2);
    let (code, _) = run_compare(&[ok.to_str().unwrap()]);
    assert_eq!(code, 2);
    let (code, _) = run_compare(&[
        ok.to_str().unwrap(),
        ok.to_str().unwrap(),
        "--rel-tol",
        "not-a-number",
    ]);
    assert_eq!(code, 2);
}
