//! What a run hands back, how it is printed, and how two sets of runs of the
//! same code are compared against the benchmark's own bounds.

use std::fmt::Write as _;

use crate::spec::{self, Better};

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off: the end-to-end metrics.
    EndToEnd,
    /// The ladder and the traced run: the per-layer metrics.
    PerLayer,
}

/// One workload, one mode.
#[derive(Clone, Debug)]
pub struct Report {
    pub workload: &'static str,
    /// Exactly the metrics `BENCHMARK.json` declares for the run's mode, in its order.
    pub metrics: Vec<Metric>,
    /// Printed with the metrics but not part of the declared set: sample
    /// counts, raw readings, the checker's coverage.
    pub notes: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// What went wrong, if anything did.
    pub problems: Vec<String>,
}

impl Report {
    /// A run that ended before it had its metrics. It has no correct output
    /// to show, so it counts as failed even when no single command did.
    pub fn unfinished(
        workload: &'static str,
        attempted: u64,
        failed: u64,
        problems: Vec<String>,
    ) -> Report {
        Report {
            workload,
            metrics: Vec::new(),
            notes: Vec::new(),
            attempted,
            failed: failed.max(1),
            problems,
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// `workload metric value unit`, one line per metric, notes after a `#`.
    pub fn print(&self) {
        for metric in &self.metrics {
            println!("{} {} {} {}", self.workload, metric.name, number(metric.value), metric.unit);
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!("{} failed_frac {} frac", self.workload, number(failed_frac));
        for note in &self.notes {
            println!("# {} {} {} {}", self.workload, note.name, number(note.value), note.unit);
        }
        for problem in &self.problems {
            println!("# {} PROBLEM {problem}", self.workload);
        }
    }

    /// The one-line result the driver reads.
    pub fn json_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (index, metric) in self.metrics.iter().enumerate() {
            let comma = if index == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{comma}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                number(metric.value),
                metric.unit
            );
        }
        line.push_str("}}");
        line
    }
}

/// Every digit of a finite value; a value that is not a number would not be
/// JSON, so it is reported as -1 (and can never pass for a measurement).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "-1".into()
    }
}

/// What the suite keeps of one run it started as a child process: enough to
/// file it and to compare it with the same run of another suite.
#[derive(Clone, Debug, PartialEq)]
pub struct Filed {
    pub workload: String,
    pub mode: Mode,
    /// `(name, value)` of every declared metric the run printed.
    pub metrics: Vec<(String, f64)>,
    /// The run's one-line JSON result, verbatim.
    pub json: String,
    /// The run exited with code 0.
    pub ok: bool,
}

impl Filed {
    /// Reads a run's standard output back: `workload metric value unit`
    /// lines are metrics (notes start with `#`), the line that starts with
    /// `{` is the JSON result.
    pub fn parse(workload: &str, mode: Mode, output: &str, ok: bool) -> Filed {
        let mut filed =
            Filed { workload: workload.into(), mode, metrics: Vec::new(), json: String::new(), ok };
        for line in output.lines() {
            if line.starts_with('{') {
                filed.json = line.into();
            } else if let [first, name, value, _unit] = line.split(' ').collect::<Vec<_>>()[..] {
                if let (true, Ok(value)) = (first == workload, value.parse()) {
                    filed.metrics.push((name.into(), value));
                }
            }
        }
        filed
    }
}

/// The machine-readable result of everything run so far.
pub fn result_json(seed: u64, seconds: u64, suites: &[Vec<Filed>]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out =
        format!("{{\"seed\": {seed}, \"seconds\": {seconds}, \"cores\": {cores}, \"runs\": [\n");
    let mut first = true;
    for (suite, runs) in suites.iter().enumerate() {
        for run in runs {
            let mode = match run.mode {
                Mode::EndToEnd => "end_to_end",
                Mode::PerLayer => "per_layer",
            };
            let comma = if first { "" } else { ",\n" };
            first = false;
            let result = if run.json.is_empty() { "null" } else { &run.json };
            let _ = write!(
                out,
                "{comma}  {{\"suite\": {suite}, \"workload\": \"{}\", \"mode\": \"{mode}\", \"result\": {result}}}",
                run.workload
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// By what share of `first` the `second` value is worse (negative: better).
pub fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    let change = match better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    if first == 0.0 {
        if change == 0.0 {
            0.0
        } else {
            change.signum() * f64::INFINITY
        }
    } else {
        change / first.abs()
    }
}

/// One compared metric of the self-agreement check.
#[derive(Clone, Debug, PartialEq)]
pub struct Agreement {
    pub workload: String,
    pub metric: String,
    pub first: f64,
    pub second: f64,
    /// Relative difference, whichever direction.
    pub difference: f64,
    /// `None` for an exact count, which must repeat exactly.
    pub bound: Option<f64>,
    pub agrees: bool,
}

/// Compares two suites of the same code, report by report. End-to-end metrics
/// must agree within their bound in either direction (neither run is "the
/// change", so a difference either way is disagreement); exact-count layer
/// metrics must be identical; other layer metrics are not compared.
pub fn agreement(first: &[Filed], second: &[Filed]) -> Vec<Agreement> {
    let mut rows = Vec::new();
    for (a, b) in first.iter().zip(second) {
        assert!(a.workload == b.workload && a.mode == b.mode, "suites make the same runs in order");
        for ((name, x), (_, y)) in a.metrics.iter().zip(&b.metrics) {
            let (x, y) = (*x, *y);
            let bound = match a.mode {
                Mode::EndToEnd => spec::END_TO_END
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| Some((m.better, m.bound))),
                Mode::PerLayer => {
                    spec::per_layer().find(|m| m.name == name && m.exact).map(|_| None)
                }
            };
            let Some(bound) = bound else { continue };
            let (difference, agrees) = match bound {
                Some((better, bound)) => {
                    let either = worse_by(better, x, y).max(worse_by(better, y, x));
                    (either, either <= bound)
                }
                None => (worse_by(Better::Lower, x, y).abs(), x == y),
            };
            rows.push(Agreement {
                workload: a.workload.clone(),
                metric: name.clone(),
                first: x,
                second: y,
                difference,
                bound: bound.map(|(_, bound)| bound),
                agrees,
            });
        }
    }
    rows
}

pub fn print_agreement(rows: &[Agreement]) {
    println!("# self-agreement: workload metric first second difference bound verdict");
    for row in rows {
        let bound = row.bound.map_or("exact".to_string(), |bound| format!("{:.1}%", bound * 100.0));
        println!(
            "# {} {} {} {} {:.2}% {} {}",
            row.workload,
            row.metric,
            number(row.first),
            number(row.second),
            row.difference * 100.0,
            bound,
            if row.agrees { "ok" } else { "DISAGREES" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filed(mode: Mode, metrics: &[(&str, f64)]) -> Filed {
        Filed {
            workload: "tcp_small".into(),
            mode,
            metrics: metrics.iter().map(|&(name, value)| (name.to_string(), value)).collect(),
            json: String::new(),
            ok: true,
        }
    }

    fn report(metrics: &[(&'static str, f64)]) -> Report {
        Report {
            workload: "tcp_small",
            metrics: metrics
                .iter()
                .map(|&(name, value)| Metric { name, value, unit: "x" })
                .collect(),
            notes: Vec::new(),
            attempted: 10,
            failed: 0,
            problems: Vec::new(),
        }
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 120.0) + 0.20).abs() < 1e-12);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn end_to_end_metrics_agree_within_their_own_bound() {
        // throughput: bound 25 %; query_rt_mean: bound 3 %.
        let first =
            [filed(Mode::EndToEnd, &[("throughput_ops_s", 30_000.0), ("query_rt_mean", 1.80)])];
        let close =
            [filed(Mode::EndToEnd, &[("throughput_ops_s", 33_000.0), ("query_rt_mean", 1.82)])];
        let rows = agreement(&first, &close);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|row| row.agrees), "{rows:?}");

        // A 10 % drift is inside throughput's bound and outside round trips',
        // in whichever direction it goes.
        for rt in [1.98, 1.62] {
            let far =
                [filed(Mode::EndToEnd, &[("throughput_ops_s", 27_000.0), ("query_rt_mean", rt)])];
            let rows = agreement(&first, &far);
            assert!(rows[0].agrees && !rows[1].agrees, "{rows:?}");
            assert_eq!(rows[1].bound, Some(0.03));
        }
    }

    #[test]
    fn exact_counts_must_repeat_and_timings_are_not_compared() {
        let first =
            [filed(Mode::PerLayer, &[("core.msgs_per_update", 4.0), ("crdt.join_big_ns", 900.0)])];
        let same =
            [filed(Mode::PerLayer, &[("core.msgs_per_update", 4.0), ("crdt.join_big_ns", 1900.0)])];
        let rows = agreement(&first, &same);
        assert_eq!(rows.len(), 1, "only the exact count is compared");
        assert!(rows[0].agrees && rows[0].bound.is_none());

        let off = [filed(
            Mode::PerLayer,
            &[("core.msgs_per_update", 4.001), ("crdt.join_big_ns", 900.0)],
        )];
        assert!(!agreement(&first, &off)[0].agrees);
    }

    #[test]
    fn a_printed_report_reads_back() {
        let mut r = report(&[("setup_s", 0.25), ("throughput_ops_s", 30_072.0)]);
        r.notes.push(Metric { name: "committed", value: 7.0, unit: "count" });
        let output = format!(
            "tcp_small setup_s 0.25 s\ntcp_small throughput_ops_s 30072 1/s\ntcp_small failed_frac 0 frac\n\
             # tcp_small committed 7 count\n{}\n",
            r.json_line()
        );
        let filed = Filed::parse("tcp_small", Mode::EndToEnd, &output, true);
        assert_eq!(
            filed.metrics,
            vec![
                ("setup_s".to_string(), 0.25),
                ("throughput_ops_s".to_string(), 30_072.0),
                ("failed_frac".to_string(), 0.0)
            ]
        );
        assert_eq!(filed.json, r.json_line());
        assert!(result_json(1, 10, &[vec![filed]])
            .contains("\"mode\": \"end_to_end\", \"result\": {\"correct\": true"));
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = report(&[("setup_s", 2.25), ("throughput_ops_s", f64::NAN)]);
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 2.25, \
             \"unit\": \"x\"}, \"throughput_ops_s\": {\"value\": -1, \"unit\": \"x\"}}}"
        );
        r.failed = 1;
        assert!(r
            .json_line()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1,"));
    }
}
