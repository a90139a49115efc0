//! Metric records, percentiles, the environment block and the result
//! line every run ends with.

use std::fmt::Write as _;

/// Every end-to-end metric, in `BENCHMARK.json` order: name and unit.
/// Each run with `--trace 0` prints exactly these.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("peak_rss_mb", "MB"),
    ("max_rate_rps", "1/s"),
];

/// Every per-layer metric, in `BENCHMARK.json` order: name and unit.
/// Each run with `--trace 1` prints exactly these. A layer the workload
/// never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("search.busy_us", "us"),
    ("search.nodes", "count"),
    ("search.dedup_hits", "count"),
    ("search.us_per_node", "us"),
    ("search.outside_wall_us", "us"),
    ("search.bytes_per_node", "B"),
    ("ltl2buchi.busy_us", "us"),
    ("ltl2buchi.states", "count"),
    ("automaton_tier.hit_ratio", "ratio"),
    ("precheck.calls", "count"),
    ("precheck.busy_us", "us"),
    ("parse.busy_us", "us"),
    ("fingerprint.busy_us", "us"),
    ("slice.busy_us", "us"),
    ("slice.rules_removed", "count"),
    ("slice.refusals", "count"),
    ("verdict_tier.hit_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.journal_bytes", "B"),
    ("engine.submit_busy_us", "us"),
    ("engine.unattributed_us", "us"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("server.handle_line_us", "us"),
    ("client.rtt_us", "us"),
    ("wire.us", "us"),
    ("loadgen.lateness_us", "us"),
    ("trace.overhead_s", "s"),
    ("unattributed.share", "ratio"),
];

/// One measured value with the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (one of [`END_TO_END`] / [`PER_LAYER`], or a
    /// report-only extra).
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
    /// The value, with all its digits.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured pass(es).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// One line per failure (capped when printed).
    pub failures: Vec<String>,
    /// The metrics of the final line.
    pub metrics: Vec<Metric>,
    /// Report-only figures (printed, not part of the final line).
    pub extra: Vec<Metric>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric of the final line.
    pub fn metric(&mut self, name: &str, unit: &str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            unit: unit.into(),
            value,
            samples,
        });
    }

    /// Records a report-only figure.
    pub fn extra(&mut self, name: &str, unit: &str, value: f64, samples: usize) {
        self.extra.push(Metric {
            name: name.into(),
            unit: unit.into(),
            value,
            samples,
        });
    }

    /// Counts one failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// Nearest-rank percentile of `samples` (any order), or `None` when
/// fewer than ten samples lie beyond it — a p90 needs 100 samples, a
/// p99 needs 1000.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let beyond = (n as f64) * (1.0 - q);
    if n == 0 || beyond + 1e-9 < 10.0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Median (nearest-rank p50; defined for any non-empty sample).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(sorted.len() - 1) / 2]
}

/// Mean, or 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Reads a `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`) in
/// bytes; 0 where the file does not exist.
pub fn proc_status_bytes(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// The environment block: cores, toolchain, revision and profile.
pub fn env_block() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"cores\": {cores}, \"rustc\": {}, \"git_rev\": {}, \"profile\": \"{profile}\"}}",
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_GIT_REV")),
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits (non-finite values print as 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The final line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(&m.unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9), None);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.99), None);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), Some(990.0));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", "s", 0.5, 5);
        let line = result_line(&r);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
