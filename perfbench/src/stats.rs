//! Sample summaries, the run's report, and the benchmark's own spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Nearest-rank quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The percentiles a sample set supports: the median always, and p90 /
/// p99 only with at least ten samples beyond them (so 100 and 1,000
/// samples). Under forty samples only the median is given.
pub fn percentiles(xs: &[f64]) -> Vec<(&'static str, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = vec![("p50", median(&v))];
    if v.len() >= 40 {
        for (name, q) in [("p90", 0.9), ("p99", 0.99)] {
            if (v.len() as f64 * (1.0 - q)).round() >= 10.0 {
                out.push((name, quantile(&v, q)));
            }
        }
    }
    out
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Current resident set (`VmRSS`) of a process, in MiB.
pub fn rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Why an operation did not pass: the program reported an error or did
/// not finish (`Failed`), or it answered and the answer is wrong.
#[derive(Debug)]
pub enum Fault {
    Failed(String),
    Wrong(String),
}

/// An oracle's complaint is a wrong answer.
impl From<String> for Fault {
    fn from(msg: String) -> Fault {
        Fault::Wrong(msg)
    }
}

impl From<&str> for Fault {
    fn from(msg: &str) -> Fault {
        Fault::Wrong(msg.to_owned())
    }
}

/// Attempted, failed and wrongly answered operations of one class.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCount {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

/// Everything one run measured: named sample sets, scalar values, and
/// operation counts per class. Failures carry their first messages.
#[derive(Default)]
pub struct Report {
    samples: BTreeMap<String, Vec<f64>>,
    values: BTreeMap<String, (f64, &'static str)>,
    ops: BTreeMap<String, OpCount>,
    errors: Vec<String>,
    pub notes: Vec<String>,
}

impl Report {
    /// Adds one sample to the set `name`.
    pub fn sample(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_owned()).or_default().push(v);
    }

    /// The samples of `name` (empty when none).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Sets a scalar value with its unit.
    pub fn set(&mut self, name: &str, v: f64, unit: &'static str) {
        self.values.insert(name.to_owned(), (v, unit));
    }

    /// A scalar value set earlier.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// Counts one operation of `class` with its outcome (the first
    /// messages are kept for the report).
    pub fn op(&mut self, class: &str, outcome: Result<(), Fault>) {
        let c = self.ops.entry(class.to_owned()).or_default();
        c.attempted += 1;
        let msg = match outcome {
            Ok(()) => return,
            Err(Fault::Failed(m)) => {
                c.failed += 1;
                format!("{class} failed: {m}")
            }
            Err(Fault::Wrong(m)) => {
                c.wrong += 1;
                format!("{class} answered wrongly: {m}")
            }
        };
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Moves another report's samples, values and counts into this one.
    pub fn absorb(&mut self, other: Report) {
        self.absorb_ops(&other);
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        self.values.extend(other.values);
        self.notes.extend(other.notes);
    }

    /// Adds another report's operation counts and messages, not its
    /// samples.
    pub fn absorb_ops(&mut self, other: &Report) {
        for (k, c) in &other.ops {
            let mine = self.ops.entry(k.clone()).or_default();
            mine.attempted += c.attempted;
            mine.failed += c.failed;
            mine.wrong += c.wrong;
        }
        self.errors.extend(other.errors.iter().cloned());
    }

    /// Totals over all classes.
    pub fn totals(&self) -> OpCount {
        self.ops.values().fold(OpCount::default(), |a, c| OpCount {
            attempted: a.attempted + c.attempted,
            failed: a.failed + c.failed,
            wrong: a.wrong + c.wrong,
        })
    }

    /// Human-readable lines: per-class counts, then every sample set
    /// with its count and supported percentiles, then scalars.
    pub fn render(&self, units: &dyn Fn(&str) -> &'static str) -> String {
        let mut s = String::new();
        for (class, c) in &self.ops {
            let _ = writeln!(
                s,
                "ops {class:<28} attempted {:>7}  failed {}  wrong {}",
                c.attempted, c.failed, c.wrong
            );
        }
        for e in &self.errors {
            let _ = writeln!(s, "error {e}");
        }
        for (name, xs) in &self.samples {
            let mut ps: Vec<String> =
                percentiles(xs).iter().map(|(p, v)| format!("{p} {v:.4}")).collect();
            let (lo, hi) = xs.iter().fold((f64::MAX, f64::MIN), |(a, b), &x| (a.min(x), b.max(x)));
            ps.push(format!("min {lo:.4}  max {hi:.4}"));
            let _ =
                writeln!(s, "{name:<34} {:<6} n={:<6} {}", units(name), xs.len(), ps.join("  "));
        }
        for (name, (v, unit)) in &self.values {
            let _ = writeln!(s, "{name:<34} {unit:<6} {v:.6}");
        }
        for n in &self.notes {
            let _ = writeln!(s, "note {n}");
        }
        s
    }
}

/// The benchmark's own spans around calls into the program, kept in
/// memory and written as a Chrome trace (`chrome://tracing`,
/// Perfetto) when the run ends.
pub struct Spans {
    origin: Instant,
    events: Vec<String>,
    on: bool,
}

impl Spans {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Spans {
        Spans { origin: Instant::now(), events: Vec::new(), on }
    }

    /// True when spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a span that started at `start` and ends now. `trace_id`
    /// joins it to the server's telemetry event of the same request.
    pub fn record(
        &mut self,
        name: &str,
        class: &str,
        start: Instant,
        thread: usize,
        trace_id: u64,
    ) {
        if !self.on {
            return;
        }
        let ts = start.duration_since(self.origin).as_secs_f64() * 1e6;
        let dur = start.elapsed().as_secs_f64() * 1e6;
        self.events.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"{class}\",\"ph\":\"X\",\"ts\":{ts:.1},\"dur\":{dur:.1},\
             \"pid\":1,\"tid\":{thread},\"args\":{{\"trace_id\":{trace_id}}}}}"
        ));
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Spans) {
        self.events.extend(other.events);
    }

    /// Writes the spans to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let body = format!("{{\"traceEvents\":[\n{}\n]}}\n", self.events.join(",\n"));
        std::fs::write(path, body)
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_samples_beyond_them() {
        let few: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(percentiles(&few), vec![("p50", 20.0)]);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentiles(&hundred), vec![("p50", 50.5), ("p90", 90.0)]);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentiles(&thousand);
        assert_eq!(p.len(), 3);
        assert_eq!(p[2], ("p99", 990.0));
    }

    #[test]
    fn report_counts_failures_per_class() {
        let mut r = Report::default();
        r.op("a", Ok(()));
        r.op("a", Err("bad".into()));
        r.op("b", Err(Fault::Failed("down".into())));
        let t = r.totals();
        assert_eq!((t.attempted, t.failed, t.wrong), (3, 1, 1));
        let text = r.render(&|_| "ms");
        assert!(text.contains("error a answered wrongly: bad"), "{text}");
        assert!(text.contains("error b failed: down"), "{text}");
    }
}
