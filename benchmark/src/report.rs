//! The metric table, the one-line JSON result a run prints last, the
//! suite's results file, and `compare` over two results files.

use crate::campaign::Campaign;
use crate::stats::{verdict, Better, Summary, Verdict};
use racesim_telemetry::json::{escape_into, parse_object, Obj, Scalar};
use std::collections::BTreeMap;

/// One metric: its name, unit, direction and — for end-to-end metrics —
/// the share of the parent's median by which it may worsen before a
/// change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics of an untraced run. Timings are medians over the
/// run's timed campaigns; the accuracy metrics come from the pinned
/// reference campaign and repeat exactly, so any change to them counts.
pub const END_TO_END: [Metric; 6] = [
    e2e("campaign_wall_s", "s", Lower, 0.24),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("evals_per_s", "1/s", Higher, 0.24),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
    e2e("best_cost_pct", "%", Lower, 0.0),
    e2e("holdout_cpi_error_pct", "%", Lower, 0.0),
];

/// Failed evaluations out of those attempted, `100 × failed / attempted`
/// of a run. The suite records and compares it like the end-to-end
/// metrics. It reads 0 on every workload, and a bound relative to a
/// median of 0 means nothing, so `BENCHMARK.json` does not list it: a
/// single run reports its two counts in the JSON result line instead.
pub const FAILED_PCT: Metric = e2e("failed_pct", "%", Lower, 0.0);

/// Per-layer metrics of a traced run.
pub const PER_LAYER: [Metric; 48] = [
    layer("core.build_stack_s", "s", Lower),
    layer("hw.probe_s", "s", Lower),
    layer("kernels.trace_s", "s", Lower),
    layer("kernels.trace_insts", "count", Lower),
    layer("kernels.trace_mb", "MB", Lower),
    layer("analyzer.coverage_s", "s", Lower),
    layer("analyzer.frozen_dims", "count", Higher),
    layer("hw.measure_calls", "count", Lower),
    layer("hw.measure_s", "s", Lower),
    layer("hw.measure_failed", "count", Lower),
    layer("eval.count", "count", Lower),
    layer("eval.busy_s", "s", Lower),
    layer("eval.p50_us", "us", Lower),
    layer("eval.p99_us", "us", Lower),
    layer("eval.first_touch_s", "s", Lower),
    layer("eval.errors", "count", Lower),
    layer("core.apply_us", "us", Lower),
    layer("race.wall_s", "s", Lower),
    layer("race.self_s", "s", Lower),
    layer("race.thread_util", "ratio", Higher),
    layer("race.iterations", "count", Lower),
    layer("race.blocks", "count", Lower),
    layer("race.configs_raced", "count", Lower),
    layer("race.cache_hit_rate", "ratio", Higher),
    layer("race.evals_per_config", "count", Lower),
    layer("sim.minst_per_s.control", "Minst/s", Higher),
    layer("sim.minst_per_s.data-parallel", "Minst/s", Higher),
    layer("sim.minst_per_s.execution", "Minst/s", Higher),
    layer("sim.minst_per_s.memory", "Minst/s", Higher),
    layer("sim.minst_per_s.store", "Minst/s", Higher),
    layer("sim.empty_run_us", "us", Lower),
    layer("sim.insts_simulated", "count", Lower),
    layer("sim.host_ns_per_sim_cycle", "ns", Lower),
    layer("decoder.unique_words", "count", Lower),
    layer("decoder.decode_all_us", "us", Lower),
    layer("uarch.cpi_mean", "cycles/inst", Lower),
    layer("uarch.branch_mpki", "1/kinst", Lower),
    layer("mem.l1d_miss_rate", "ratio", Lower),
    layer("mem.l2_miss_rate", "ratio", Lower),
    layer("mem.dram_accesses", "count", Lower),
    layer("dist.tasks", "count", Lower),
    layer("dist.batches", "count", Lower),
    layer("dist.first_batch_s", "s", Lower),
    layer("dist.batch_p50_ms", "ms", Lower),
    layer("dist.batch_p99_ms", "ms", Lower),
    layer("dist.batch_wall_s", "s", Lower),
    layer("dist.overhead_ms_per_task", "ms", Lower),
    // The traced campaign's wall against the untraced median.
    layer("trace_overhead_pct", "%", Lower),
];

/// Looks a metric up by name in either table, or [`FAILED_PCT`].
pub fn metric(name: &str) -> Option<Metric> {
    END_TO_END
        .into_iter()
        .chain([FAILED_PCT])
        .chain(PER_LAYER)
        .find(|m| m.name == name)
}

/// What one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Measured metrics, by name, in the order they were taken.
    pub metrics: Vec<(String, f64)>,
    /// Evaluations the run's campaigns attempted.
    pub attempted: u64,
    /// Evaluations that failed: failed configurations plus quarantined
    /// instances, and every evaluation of a campaign that failed a check.
    pub failed: u64,
    /// Why, one line per failed check.
    pub errors: Vec<String>,
    /// `(tuner seed, printed best cost, evaluations)` of every campaign
    /// that completed, for cross-run determinism checks.
    pub outcomes: Vec<(u64, String, u64)>,
}

impl RunReport {
    /// Records a metric value.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Records a failed check without a campaign to charge it to.
    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// Counts a finished campaign's `evals` evaluations, `failed` of them
    /// failed. The workloads are fault-free, so any failure is an error.
    pub fn count(&mut self, what: &str, evals: u64, failed: u64) {
        self.attempted += evals;
        self.failed += failed;
        if failed > 0 {
            self.error(format!("{what}: {failed} of {evals} evaluations failed"));
        }
    }

    /// Charges `evals` already counted evaluations of a campaign that
    /// failed a check as failed.
    pub fn reject(&mut self, what: &str, evals: u64, why: &str) {
        self.failed += evals;
        self.error(format!("{what}: {why}"));
    }

    /// Counts one CLI campaign of a workload with evaluation `budget`. A
    /// campaign that exits non-zero or fails a check is charged its whole
    /// budget, all of it failed: it may not have said how far it got.
    pub fn campaign(
        &mut self,
        what: &str,
        budget: u64,
        outcome: Result<Campaign, String>,
    ) -> Option<Campaign> {
        match outcome {
            Ok(c) => {
                let s = &c.summary;
                self.count(what, s.evals, s.failed_configs + s.quarantined);
                Some(c)
            }
            Err(e) => {
                self.attempted += budget;
                self.reject(what, budget, &e);
                None
            }
        }
    }

    /// `100 × failed / attempted`.
    pub fn failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every check passed and every expected metric is present.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// Checks that exactly the `expected` metrics were measured, each
    /// once and finite; records a failed check otherwise.
    pub fn require(&mut self, expected: impl Iterator<Item = Metric>) {
        let expected: Vec<&str> = expected.map(|m| m.name).collect();
        for name in &expected {
            match self.metrics.iter().filter(|(n, _)| n == name).count() {
                1 => {}
                0 => self.error(format!("metric {name} was not measured")),
                _ => self.error(format!("metric {name} was measured twice")),
            }
        }
        let extra: Vec<String> = self
            .metrics
            .iter()
            .filter(|(n, _)| !expected.contains(&n.as_str()))
            .map(|(n, _)| n.clone())
            .collect();
        for name in extra {
            self.error(format!("metric {name} is not in the table"));
        }
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(n, v)| format!("metric {n} is not finite ({v})"))
            .collect();
        self.errors.extend(bad);
    }

    /// The last line of a run's standard output: one JSON object with
    /// `correct`, `attempted`, `failed` and every measured metric.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let finite = self.metrics.iter().filter(|(_, v)| v.is_finite());
        for (i, (name, value)) in finite.enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let unit = metric(name).map_or("", |m| m.unit);
            out.push('"');
            escape_into(&mut out, name);
            out.push_str(&format!("\": {{\"value\": {value}, \"unit\": \""));
            escape_into(&mut out, unit);
            out.push_str("\"}");
        }
        out.push_str("}}");
        out
    }
}

/// One `(workload, metric)` row of a results file.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric, with the unit, direction and bound recorded in the file.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// Regression bound (`None` for per-layer metrics).
    pub bound: Option<f64>,
    /// Median, quartiles and run count.
    pub summary: Summary,
}

/// Renders a results file: a JSON array whose first element records
/// where the numbers came from and whose other elements are [`Row`]s,
/// one flat object per line so `compare` reads it back with the
/// workspace's flat-object codec.
pub fn render_results(header: &[(&str, String)], rows: &[Row]) -> String {
    let mut lines = Vec::new();
    let mut h = Obj::new();
    for (k, v) in header {
        h.str(k, v);
    }
    lines.push(h.finish());
    for r in rows {
        let mut o = Obj::new();
        o.str("workload", &r.workload)
            .str("metric", &r.metric)
            .str("unit", &r.unit)
            .str("better", r.better.as_str());
        if let Some(b) = r.bound {
            o.f64("bound", b);
        }
        o.u64("n", r.summary.n as u64)
            .f64("median", r.summary.median)
            .f64("q1", r.summary.q1)
            .f64("q3", r.summary.q3);
        lines.push(o.finish());
    }
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Parses a results file written by [`render_results`].
///
/// # Errors
///
/// Reports the first line that is not a well-formed header or row.
pub fn parse_results(text: &str) -> Result<(BTreeMap<String, String>, Vec<Row>), String> {
    let mut lines = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && *l != "[" && *l != "]")
        .map(|l| l.strip_suffix(',').unwrap_or(l));
    let header_line = lines.next().ok_or("empty results file")?;
    let header = parse_object(header_line)?
        .into_iter()
        .map(|(k, v)| match v {
            Scalar::Str(s) | Scalar::Num(s) => (k, s),
            Scalar::Bool(b) => (k, b.to_string()),
        })
        .collect();
    let mut rows = Vec::new();
    for (i, line) in lines.enumerate() {
        let fields: BTreeMap<String, Scalar> = parse_object(line)
            .map_err(|e| format!("row {}: {e}", i + 1))?
            .into_iter()
            .collect();
        let text = |k: &str| match fields.get(k) {
            Some(Scalar::Str(s)) => Ok(s.clone()),
            _ => Err(format!("row {}: missing string {k:?}", i + 1)),
        };
        let num = |k: &str| match fields.get(k) {
            Some(Scalar::Num(s)) => s
                .parse::<f64>()
                .map_err(|_| format!("row {}: bad number {k:?}", i + 1)),
            _ => Err(format!("row {}: missing number {k:?}", i + 1)),
        };
        let better = text("better")?;
        rows.push(Row {
            workload: text("workload")?,
            metric: text("metric")?,
            unit: text("unit")?,
            better: Better::parse(&better)
                .ok_or_else(|| format!("row {}: bad direction {better:?}", i + 1))?,
            bound: fields
                .contains_key("bound")
                .then(|| num("bound"))
                .transpose()?,
            summary: Summary {
                median: num("median")?,
                q1: num("q1")?,
                q3: num("q3")?,
                n: num("n")? as usize,
            },
        });
    }
    Ok((header, rows))
}

/// The verdict on every end-to-end `(workload, metric)` pair of `a` that
/// `b` also measured, judged by the bound recorded in `a`.
pub fn compare(a: &[Row], b: &[Row]) -> Vec<(Row, Row, Verdict)> {
    a.iter()
        .filter_map(|ra| {
            let bound = ra.bound?;
            let rb = b
                .iter()
                .find(|rb| rb.workload == ra.workload && rb.metric == ra.metric)?;
            let v = verdict(&ra.summary, &rb.summary, ra.better, bound);
            Some((ra.clone(), rb.clone(), v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_unique_names() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain([&FAILED_PCT])
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert!(END_TO_END.iter().all(|m| m.bound.is_some()));
        // setup_s carries the largest bound, so work moved into set-up
        // is the last thing to go unnoticed.
        let setup = metric("setup_s").and_then(|m| m.bound).unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= setup));
    }

    #[test]
    fn benchmark_json_lists_exactly_this_table() {
        let json = include_str!("../../BENCHMARK.json");
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.unwrap()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"name\": ").count();
        let workloads = crate::workload::WORKLOADS.len();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
        for w in crate::workload::WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name)));
        }
    }

    #[test]
    fn result_line_has_the_documented_shape() {
        let mut r = RunReport::default();
        r.count("campaign", 300, 0);
        r.put("setup_s", 0.25);
        r.put("peak_rss_mb", 40.0);
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 300, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 40, \"unit\": \"MB\"}}}"
        );
        assert_eq!(r.failed_pct(), 0.0);
        // A campaign that exits non-zero is charged its whole budget.
        r.campaign("campaign", 100, Err("exit status 1".to_string()));
        assert!(!r.correct());
        assert!(r
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 400, \"failed\": 100"));
        assert_eq!(r.failed_pct(), 25.0);
    }

    #[test]
    fn failed_configurations_and_rejected_campaigns_count_as_failed() {
        let mut r = RunReport::default();
        r.count("campaign", 200, 3);
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (200, 3));
        r.count("rerun", 200, 0);
        r.reject("rerun", 200, "outcome differs");
        assert_eq!((r.attempted, r.failed), (400, 203));
        assert_eq!(r.errors.len(), 2);
    }

    #[test]
    fn require_flags_missing_duplicate_and_unknown_metrics() {
        let mut r = RunReport::default();
        r.put("setup_s", 1.0);
        r.put("setup_s", 1.0);
        r.put("bogus", 1.0);
        r.put("peak_rss_mb", f64::NAN);
        r.require(END_TO_END.into_iter());
        let all = r.errors.join("\n");
        assert!(all.contains("campaign_wall_s was not measured"), "{all}");
        assert!(all.contains("setup_s was measured twice"), "{all}");
        assert!(all.contains("bogus is not in the table"), "{all}");
        assert!(all.contains("peak_rss_mb is not finite"), "{all}");
        // Non-finite values never reach the JSON line.
        assert!(!r.result_line().contains("NaN"));
    }

    #[test]
    fn results_round_trip_and_compare() {
        let row = |metric: &str, median: f64, spread: f64| Row {
            workload: "a53-long".to_string(),
            metric: metric.to_string(),
            unit: "s".to_string(),
            better: Better::Lower,
            bound: Some(0.1),
            summary: Summary {
                median,
                q1: median - spread,
                q3: median + spread,
                n: 5,
            },
        };
        let a = vec![row("campaign_wall_s", 1.0, 0.01), row("setup_s", 0.2, 0.0)];
        let text = render_results(&[("commit", "abc".to_string())], &a);
        let (header, back) = parse_results(&text).expect("parses");
        assert_eq!(header["commit"], "abc");
        assert_eq!(back, a);

        let b = vec![row("campaign_wall_s", 1.2, 0.01), row("setup_s", 0.2, 0.0)];
        let verdicts: Vec<Verdict> = compare(&a, &b).into_iter().map(|(_, _, v)| v).collect();
        assert_eq!(verdicts, [Verdict::Regressed, Verdict::Unchanged]);

        // Exact metrics carry a bound of 0: any move is a verdict.
        let exact = |median: f64| Row {
            metric: "best_cost_pct".to_string(),
            bound: metric("best_cost_pct").and_then(|m| m.bound),
            ..row("", median, 0.0)
        };
        let verdicts: Vec<Verdict> = compare(&[exact(11.62)], &[exact(11.63)])
            .into_iter()
            .map(|(_, _, v)| v)
            .collect();
        assert_eq!(verdicts, [Verdict::Regressed]);
        assert!(parse_results("[\n{\"commit\": \"x\"},\n{\"workload\": 1}\n]").is_err());
    }
}
