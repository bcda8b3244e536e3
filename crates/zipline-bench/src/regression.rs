//! The CI bench-regression gate's engine.
//!
//! The repository commits one `BENCH_PR<n>.json` snapshot per perf-relevant
//! PR (produced by the criterion shim's `BENCH_JSON` hook), but until this
//! module nothing *read* them — a regression was only visible to a human
//! diffing JSON. The gate closes that loop:
//!
//! 1. every committed `BENCH_PR*.json` is parsed into `(id, median)` pairs;
//!    when an id appears in several snapshots, the **highest-numbered PR
//!    wins** — baselines are authoritative history, so the most recent
//!    committed measurement is the contract;
//! 2. CI runs the tracked bench targets with `BENCH_JSON` pointing at a
//!    scratch file and hands that fresh JSONL to [`compare`];
//! 3. a tracked benchmark whose fresh median exceeds `baseline ×
//!    tolerance` fails the gate. The default tolerance
//!    ([`DEFAULT_TOLERANCE`]) is deliberately generous: the CI container is
//!    single-core and the shim's run-to-run jitter (including group
//!    ordering effects) reaches tens of percent, so the gate catches
//!    *order-of* regressions — an accidentally quadratic loop, a lost fast
//!    path — not 10% drift. Tightening it is a knob, not a rewrite;
//! 4. a tracked *group* with no compared benchmark at all also fails: a
//!    silently renamed or deleted bench target must not pass as "no
//!    regression".
//!
//! Parsing is a deliberately tiny scanner for the two keys the shim emits
//! (`"id"` and `"median_ns_per_iter"`) rather than a JSON parser — the
//! workspace is offline and the committed snapshots are machine-written, so
//! a full parser buys nothing. The scanner accepts both the pretty-printed
//! snapshot files and the one-line-per-bench `BENCH_JSON` output.

use std::collections::BTreeMap;

/// Multiple of the committed baseline a fresh median may reach before the
/// gate fails. See the module docs for why it is this loose.
pub const DEFAULT_TOLERANCE: f64 = 3.0;

/// Benchmark groups the gate enforces: the engine-level groups CI
/// re-measures on every run. (The PR-1 microbenchmark groups stay
/// committed as history but are not gated — they are dominated by the same
/// code paths the engine groups exercise.)
pub const TRACKED_GROUPS: &[&str] = &[
    "engine_scaling",
    "batch_decode_9000B",
    "dictionary_churn",
    "backend_matrix",
    "pipelined_ingest",
    "recovery",
    "server_load",
    "multi_tenant",
    "codec_select",
];

/// One measured benchmark: its full id (`group/name[/param]`) and median.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    pub id: String,
    pub median_ns: f64,
}

impl BenchRecord {
    /// The group prefix of the id (everything before the first `/`).
    pub fn group(&self) -> &str {
        self.id.split('/').next().unwrap_or(&self.id)
    }
}

/// Extracts every `(id, median_ns_per_iter)` pair from criterion-shim
/// output — the pretty-printed `BENCH_PR*.json` snapshots and the
/// line-per-bench `BENCH_JSON` scratch files alike.
pub fn parse_records(text: &str) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    let mut rest = text;
    while let Some(id_at) = rest.find("\"id\"") {
        rest = &rest[id_at + 4..];
        let Some(id) = next_string_value(rest) else {
            continue;
        };
        let Some(median_at) = rest.find("\"median_ns_per_iter\"") else {
            break;
        };
        // The median key must belong to this id's object: reject if another
        // id opens first (a snapshot with a trailing id-less entry).
        if rest[..median_at].contains("\"id\"") {
            continue;
        }
        let after_median = &rest[median_at + "\"median_ns_per_iter\"".len()..];
        if let Some(median_ns) = next_number_value(after_median) {
            records.push(BenchRecord { id, median_ns });
        }
        rest = after_median;
    }
    records
}

/// Reads the next `: "string"` value.
fn next_string_value(text: &str) -> Option<String> {
    let colon = text.find(':')?;
    let after = text[colon + 1..].trim_start();
    let mut chars = after.char_indices();
    match chars.next() {
        Some((_, '"')) => {}
        _ => return None,
    }
    let close = after[1..].find('"')?;
    Some(after[1..1 + close].to_string())
}

/// Reads the next `: number` value.
fn next_number_value(text: &str) -> Option<f64> {
    let colon = text.find(':')?;
    let after = text[colon + 1..].trim_start();
    let end = after
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(after.len());
    after[..end].parse().ok()
}

/// The PR number of a `BENCH_PR<n>.json` file name, used for
/// "latest snapshot wins" ordering.
pub fn pr_number(file_name: &str) -> Option<u32> {
    let rest = file_name.strip_prefix("BENCH_PR")?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// The authoritative baseline per benchmark id, merged from every committed
/// snapshot with the highest-numbered PR winning ties.
#[derive(Debug, Default)]
pub struct BaselineSet {
    /// id → (median, PR number, source file).
    entries: BTreeMap<String, (f64, u32, String)>,
}

impl BaselineSet {
    /// Merges one snapshot file's records in (see the module docs for the
    /// latest-wins rule).
    pub fn absorb(&mut self, source: &str, pr: u32, text: &str) {
        for record in parse_records(text) {
            match self.entries.get(&record.id) {
                Some(&(_, existing_pr, _)) if existing_pr >= pr => {}
                _ => {
                    self.entries
                        .insert(record.id, (record.median_ns, pr, source.to_string()));
                }
            }
        }
    }

    /// Number of distinct baselined benchmark ids.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no snapshot contributed any record.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The authoritative `(median, source file)` for an id.
    pub fn lookup(&self, id: &str) -> Option<(f64, &str)> {
        self.entries
            .get(id)
            .map(|(median, _, source)| (*median, source.as_str()))
    }

    /// Tracked groups with at least one baselined id.
    pub fn covered_groups(&self) -> Vec<&'static str> {
        TRACKED_GROUPS
            .iter()
            .copied()
            .filter(|group| {
                self.entries
                    .keys()
                    .any(|id| id.split('/').next() == Some(group))
            })
            .collect()
    }
}

/// One gate outcome for a compared benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub id: String,
    pub baseline_ns: f64,
    pub fresh_ns: f64,
    /// `fresh / baseline`; above the tolerance the gate fails.
    pub ratio: f64,
    pub source: String,
    pub regressed: bool,
}

/// The gate's verdict over one fresh run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every tracked benchmark present in both baseline and fresh run,
    /// sorted by id.
    pub comparisons: Vec<Comparison>,
    /// Tracked groups the fresh run produced no comparable benchmark for.
    pub missing_groups: Vec<&'static str>,
}

impl Report {
    /// True when no benchmark regressed and every tracked group was
    /// exercised.
    pub fn passed(&self) -> bool {
        self.missing_groups.is_empty() && self.comparisons.iter().all(|c| !c.regressed)
    }

    /// The regressed comparisons, worst ratio first.
    pub fn regressions(&self) -> Vec<&Comparison> {
        let mut regressed: Vec<&Comparison> =
            self.comparisons.iter().filter(|c| c.regressed).collect();
        regressed.sort_by(|a, b| b.ratio.partial_cmp(&a.ratio).expect("finite ratios"));
        regressed
    }
}

/// Gates a fresh run against the committed baselines; see the module docs
/// for the rules. Only ids in [`TRACKED_GROUPS`] participate; fresh
/// benchmarks without a baseline pass silently (they are *new* — their
/// snapshot lands with the PR introducing them).
pub fn compare(baselines: &BaselineSet, fresh: &[BenchRecord], tolerance: f64) -> Report {
    let mut report = Report::default();
    for record in fresh {
        if !TRACKED_GROUPS.contains(&record.group()) {
            continue;
        }
        let Some((baseline_ns, source)) = baselines.lookup(&record.id) else {
            continue;
        };
        let ratio = if baseline_ns > 0.0 {
            record.median_ns / baseline_ns
        } else {
            f64::INFINITY
        };
        report.comparisons.push(Comparison {
            id: record.id.clone(),
            baseline_ns,
            fresh_ns: record.median_ns,
            ratio,
            source: source.to_string(),
            regressed: ratio > tolerance,
        });
    }
    report.comparisons.sort_by(|a, b| a.id.cmp(&b.id));
    // Every tracked group that has a baseline must also appear in the fresh
    // run — otherwise a deleted/renamed bench silently passes.
    for group in baselines.covered_groups() {
        if !report
            .comparisons
            .iter()
            .any(|c| c.id.split('/').next() == Some(group))
        {
            report.missing_groups.push(group);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAPSHOT: &str = r#"{
      "snapshot": "BENCH_PR9",
      "acceptance": { "speedup": 2.0, "note": "identifiers recycle" },
      "benchmarks": [
        { "id": "engine_scaling/engine_w4/s16", "median_ns_per_iter": 100.5, "best_ns_per_iter": 90.0 },
        { "id": "pipelined_ingest/sync_stream", "median_ns_per_iter": 200.0, "best_ns_per_iter": 190.0 }
      ]
    }"#;

    const JSONL: &str = concat!(
        "{\"id\":\"engine_scaling/engine_w4/s16\",\"median_ns_per_iter\":120.00,\"best_ns_per_iter\":110.00,\"iters_per_sample\":32,\"samples\":10}\n",
        "{\"id\":\"pipelined_ingest/sync_stream\",\"median_ns_per_iter\":900.00,\"best_ns_per_iter\":880.00,\"iters_per_sample\":32,\"samples\":10}\n",
    );

    #[test]
    fn parses_pretty_snapshots_and_jsonl() {
        let pretty = parse_records(SNAPSHOT);
        assert_eq!(pretty.len(), 2);
        assert_eq!(pretty[0].id, "engine_scaling/engine_w4/s16");
        assert_eq!(pretty[0].median_ns, 100.5);
        assert_eq!(pretty[1].group(), "pipelined_ingest");

        let lines = parse_records(JSONL);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].median_ns, 900.0);
    }

    #[test]
    fn parses_every_committed_snapshot_shape() {
        // The real committed files must parse and cover the tracked groups.
        let mut set = BaselineSet::default();
        for (name, text) in [
            ("BENCH_PR1.json", include_str!("../../../BENCH_PR1.json")),
            ("BENCH_PR2.json", include_str!("../../../BENCH_PR2.json")),
            ("BENCH_PR3.json", include_str!("../../../BENCH_PR3.json")),
            ("BENCH_PR4.json", include_str!("../../../BENCH_PR4.json")),
            ("BENCH_PR5.json", include_str!("../../../BENCH_PR5.json")),
            ("BENCH_PR6.json", include_str!("../../../BENCH_PR6.json")),
            ("BENCH_PR7.json", include_str!("../../../BENCH_PR7.json")),
            ("BENCH_PR9.json", include_str!("../../../BENCH_PR9.json")),
            ("BENCH_PR10.json", include_str!("../../../BENCH_PR10.json")),
            ("BENCH_PR14.json", include_str!("../../../BENCH_PR14.json")),
        ] {
            let pr = pr_number(name).unwrap();
            set.absorb(name, pr, text);
        }
        assert!(set.len() > 40, "snapshots carry history: {}", set.len());
        assert_eq!(set.covered_groups(), TRACKED_GROUPS, "all groups gated");
        // Latest-wins: engine_w4/s16 appears in PR2, PR3 and PR4; PR4 is
        // the authority.
        let (_, source) = set.lookup("engine_scaling/engine_w4/s16").unwrap();
        assert_eq!(source, "BENCH_PR4.json");
        let (_, source) = set.lookup("engine_scaling/served_256_w4_s8/auto").unwrap();
        assert_eq!(source, "BENCH_PR14.json");
    }

    #[test]
    fn pr_numbers_order_snapshots_numerically() {
        assert_eq!(pr_number("BENCH_PR5.json"), Some(5));
        assert_eq!(pr_number("BENCH_PR12.json"), Some(12));
        assert_eq!(pr_number("README.md"), None);
        let mut set = BaselineSet::default();
        set.absorb("BENCH_PR2.json", 2, SNAPSHOT);
        // An older snapshot must not displace a newer one's number.
        set.absorb(
            "BENCH_PR12.json",
            12,
            r#"{"id": "engine_scaling/engine_w4/s16", "median_ns_per_iter": 50.0}"#,
        );
        set.absorb(
            "BENCH_PR3.json",
            3,
            r#"{"id": "engine_scaling/engine_w4/s16", "median_ns_per_iter": 70.0}"#,
        );
        let (median, source) = set.lookup("engine_scaling/engine_w4/s16").unwrap();
        assert_eq!(median, 50.0);
        assert_eq!(source, "BENCH_PR12.json");
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let mut set = BaselineSet::default();
        set.absorb("BENCH_PR9.json", 9, SNAPSHOT);
        let fresh = parse_records(JSONL);
        // 120/100.5 = 1.19x passes at 3.0; 900/200 = 4.5x fails.
        let report = compare(&set, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        let regressions = report.regressions();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].id, "pipelined_ingest/sync_stream");
        assert!((regressions[0].ratio - 4.5).abs() < 1e-9);
        // With a looser gate the same run passes.
        assert!(compare(&set, &fresh, 5.0).passed());
    }

    #[test]
    fn gate_fails_when_a_tracked_group_goes_missing() {
        let mut set = BaselineSet::default();
        set.absorb("BENCH_PR9.json", 9, SNAPSHOT);
        // Fresh run covers engine_scaling only: pipelined_ingest has a
        // baseline but produced nothing — that must fail, not pass quietly.
        let fresh = parse_records(
            "{\"id\":\"engine_scaling/engine_w4/s16\",\"median_ns_per_iter\":101.0}\n",
        );
        let report = compare(&set, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert_eq!(report.missing_groups, vec!["pipelined_ingest"]);
    }

    #[test]
    fn untracked_and_unbaselined_benchmarks_pass_silently() {
        let mut set = BaselineSet::default();
        set.absorb("BENCH_PR9.json", 9, SNAPSHOT);
        let fresh = parse_records(concat!(
            // Untracked group: ignored even though it looks regressed.
            "{\"id\":\"switch_program_per_packet/noop/64\",\"median_ns_per_iter\":1e9}\n",
            // Tracked group, brand-new id: no baseline yet, passes.
            "{\"id\":\"engine_scaling/engine_w16/s32\",\"median_ns_per_iter\":1e9}\n",
            "{\"id\":\"engine_scaling/engine_w4/s16\",\"median_ns_per_iter\":99.0}\n",
            "{\"id\":\"pipelined_ingest/sync_stream\",\"median_ns_per_iter\":201.0}\n",
        ));
        let report = compare(&set, &fresh, DEFAULT_TOLERANCE);
        assert!(report.passed(), "report: {report:?}");
        assert_eq!(report.comparisons.len(), 2);
    }
}
