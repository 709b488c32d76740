//! Percentiles, process counters from `/proc`, and the result line.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it. 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// User plus system CPU time in clock ticks, from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may hold spaces and
/// parentheses, so fields are counted after its last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Ticks per second of `/proc` CPU times (`USER_HZ`, fixed at 100 by
/// the Linux ABI on every mainstream architecture).
const USER_HZ: u64 = 100;

/// Process CPU time (all threads, user + system) in microseconds.
pub fn process_cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat") * (1_000_000 / USER_HZ)
}

/// Peak resident set size in KiB (`VmHWM`), from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Whether a metric name is well formed: letters, digits, `_`, `.`
/// and `-`, starting with a letter or digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value in `unit`.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (transactions and scans).
    pub attempted: u64,
    /// Operations that failed (engine aborts, failed scans).
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Output checks that failed, and errors worth printing.
    pub problems: Vec<String>,
}

impl Report {
    /// Add a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result. Non-finite values (never expected)
    /// print as `null` so the line stays valid JSON.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[1, 2, 3], 50.0), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
        assert_eq!(percentile(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 90.0), 9);
    }

    #[test]
    fn stat_parser_reads_utime_and_stime() {
        // A real line's shape, with a hostile command name.
        let line = "4242 (we ird) (name) R 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    731 29 0 0 20 0 3 0 5000 100000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(760));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
        let own = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_stat_cpu_ticks(&own).is_some());
    }

    #[test]
    fn status_parser_reads_hwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_hwm_kib(status), Some(2048));
        assert_eq!(parse_status_hwm_kib("Name: x\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("core.insert_imrs.p99_us"));
        assert!(valid_name("setup_s"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 1,
            ..Default::default()
        };
        r.put("a_ms", 1.5, "ms");
        r.put("b", f64::NAN, "count");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": null, \"unit\": \"count\"}}}"
        );
    }
}
