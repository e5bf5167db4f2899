//! Schema smoke test: drives the built program the way `run.sh` does, in
//! `--quick` mode (1 s windows — never used for reported numbers), and holds
//! its output against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const PROGRAM: &str = env!("CARGO_BIN_EXE_crdt-paxos-benchmark");
const DECLARED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `(name, unit)` of every entry of one array of `BENCHMARK.json`. The file
/// is generated one entry per line, so a line scan is enough.
fn declared(json: &str, section: &str) -> Vec<(String, String)> {
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let start = json.find(&format!("\"{section}\": [")).unwrap_or_else(|| panic!("no {section}"));
    json[start..]
        .lines()
        .skip(1)
        .take_while(|line| line.trim_start().starts_with('{'))
        .map(|line| (field(line, "name").expect("name"), field(line, "unit").unwrap_or_default()))
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_is_what_the_program_declares() {
    let emitted = Command::new(PROGRAM).arg("--emit-spec").output().expect("run --emit-spec");
    assert!(emitted.status.success());
    let on_disk =
        std::fs::read_to_string(DECLARED).expect("BENCHMARK.json at the root of the repo");
    assert_eq!(
        String::from_utf8(emitted.stdout).expect("utf-8"),
        on_disk,
        "BENCHMARK.json is stale: regenerate it with `benchmark/run.sh --emit-spec > BENCHMARK.json`"
    );
}

#[test]
fn every_declared_metric_is_printed_once_per_workload() {
    let json = std::fs::read_to_string(DECLARED).expect("BENCHMARK.json");
    let workloads = declared(&json, "workloads");
    let end_to_end = declared(&json, "end_to_end");
    let per_layer = declared(&json, "per_layer");
    assert_eq!(workloads.len(), 5);
    assert!(end_to_end.iter().any(|(name, unit)| name == "setup_s" && unit == "s"));

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("schema");
    let run = Command::new(PROGRAM)
        .args(["--quick", "--traced", "--out"])
        .arg(&out)
        .output()
        .expect("run the suite");
    let stdout = String::from_utf8(run.stdout).expect("utf-8");
    assert!(
        run.status.success(),
        "suite failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    // workload → metric → (value, unit), counting repeats.
    let mut printed: BTreeMap<(String, String), Vec<(f64, String)>> = BTreeMap::new();
    let mut results = Vec::new();
    for line in stdout.lines() {
        if line.starts_with('{') {
            results.push(line);
        } else if let [workload, metric, value, unit] = line.split(' ').collect::<Vec<_>>()[..] {
            let value: f64 = value.parse().unwrap_or_else(|_| panic!("not a number: {line}"));
            printed.entry((workload.into(), metric.into())).or_default().push((value, unit.into()));
        } else {
            assert!(line.starts_with('#'), "neither metric, note nor result: {line}");
        }
    }
    for (workload, _) in &workloads {
        for (metric, unit) in end_to_end.iter().chain(&per_layer) {
            assert!(valid_name(metric), "{metric}");
            let lines =
                printed.get(&(workload.clone(), metric.clone())).map_or(&[][..], Vec::as_slice);
            let [(value, printed_unit)] = lines else {
                panic!("{workload} {metric}: printed {} times", lines.len());
            };
            assert!(value.is_finite(), "{workload} {metric} = {value}");
            assert_eq!(printed_unit, unit, "{workload} {metric}");
        }
        // Nothing undeclared is passed off as a metric, bar the failure share.
        for (_, metric) in printed.keys().filter(|(w, _)| w == workload) {
            assert!(
                metric == "failed_frac"
                    || end_to_end.iter().chain(&per_layer).any(|(name, _)| name == metric),
                "{workload} prints undeclared {metric}"
            );
        }
        let spans = std::fs::read_to_string(out.join(format!("trace_{workload}.jsonl")))
            .expect("span file");
        assert!(spans.lines().count() > 10, "{workload}: {} spans", spans.lines().count());
        assert!(spans.lines().all(|line| line.starts_with("{\"id\": ") && line.ends_with('}')));
        assert!(
            spans.contains("\"name\": \"client.command\"")
                && spans.contains("\"name\": \"engine.quorum_wait\"")
        );
    }

    // One result line per workload and mode, carrying exactly its mode's metrics.
    assert_eq!(results.len(), 2 * workloads.len());
    for (index, result) in results.iter().enumerate() {
        assert!(result.starts_with("{\"correct\": true, \"attempted\": "), "{result}");
        assert!(result.contains("\"failed\": 0, \"metrics\": {"), "{result}");
        let (mine, others) =
            if index % 2 == 0 { (&end_to_end, &per_layer) } else { (&per_layer, &end_to_end) };
        for (metric, unit) in mine {
            assert_eq!(
                result.matches(&format!("\"{metric}\": {{\"value\": ")).count(),
                1,
                "{metric} in {result}"
            );
            assert!(result.contains(&format!("\"unit\": \"{unit}\"}}")), "{metric} in {result}");
        }
        for (metric, _) in others {
            assert!(
                !result.contains(&format!("\"{metric}\": ")),
                "{metric} in the wrong mode: {result}"
            );
        }
    }
    let filed = std::fs::read_to_string(out.join("result.json")).expect("result.json");
    assert_eq!(filed.matches("\"result\": {\"correct\": true").count(), results.len());
}
