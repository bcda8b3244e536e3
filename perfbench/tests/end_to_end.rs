//! Tiny runs of every workload against the real server: each must verify,
//! and every metric it prints must be the one `BENCHMARK.json` names.

use std::path::PathBuf;
use std::process::Command;

/// `(name, unit)` of every entry in one array section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..start + text[start..].find(']').expect("array ends")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\""))? + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|entry| {
            let name = field(entry, "name").expect("entry has a name");
            let unit = field(entry, "unit").unwrap_or_default();
            (name, unit)
        })
        .collect()
}

/// Metric `(name, unit)` pairs of a result line, in printed order.
fn printed(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics object")..];
    metrics
        .split("{\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
        .map(|pair| {
            let name = pair[0].trim_end_matches([':', ' ']).trim_end_matches('"');
            let name = &name[name.rfind('"').expect("quoted name") + 1..];
            let unit = pair[1].split("\"unit\": \"").nth(1).expect("unit");
            (
                name.to_string(),
                unit[..unit.find('"').expect("quoted unit")].to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> (bool, String) {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .arg("--serverd")
        .arg(env!("CARGO_BIN_EXE_zipline-serverd"))
        .arg("--work-dir")
        .arg(&work)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (last.starts_with("{\"correct\": true, "), last)
}

#[test]
fn tiny_runs_verify_and_print_the_declared_end_to_end_metrics() {
    let declared = declared("end_to_end");
    for workload in ["sensor_gd", "dns_auto", "flows_durable"] {
        let (correct, line) = run(workload, "0");
        assert!(correct, "{workload}: {line}");
        assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
        assert_eq!(printed(&line), declared, "{workload}");
    }
}

#[test]
fn traced_runs_print_the_declared_per_layer_metrics() {
    let declared = declared("per_layer");
    for workload in ["sensor_gd", "dns_auto", "flows_durable"] {
        let (correct, line) = run(workload, "1");
        assert!(correct, "{workload}: {line}");
        assert_eq!(printed(&line), declared, "{workload}");
    }
}

#[test]
fn workloads_match_the_declared_ones() {
    let names: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, ["sensor_gd", "dns_auto", "flows_durable"]);
}
