//! What all four workloads share: the run shape (set-up → warm-up → timed
//! run → traced pass), the sample pool and the end-to-end metrics.

use crate::calib::{RefClock, Reference};
use crate::metric::Metric;
use crate::stats;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServedAdhoc,
    ServedPreparedChurn,
    EmbeddedRam,
    EmbeddedSpill,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServedAdhoc,
        Workload::ServedPreparedChurn,
        Workload::EmbeddedRam,
        Workload::EmbeddedSpill,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServedAdhoc => "served_adhoc",
            Workload::ServedPreparedChurn => "served_prepared_churn",
            Workload::EmbeddedRam => "embedded_ram",
            Workload::EmbeddedSpill => "embedded_spill",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One generator thread: its counts must repeat exactly.
    pub fn single_threaded(self) -> bool {
        matches!(self, Workload::EmbeddedRam | Workload::EmbeddedSpill)
    }
}

/// Arguments of one workload process.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: f64,
    /// `--trace 1`: half the time goes to an untraced timed run, the rest
    /// to the traced pass, and the per-layer metrics are reported.
    pub trace: bool,
    /// Smoke run: small tables, one set-up, few repetitions.
    pub quick: bool,
    /// Where the trace, the table file and spill files go.
    pub out_dir: PathBuf,
}

impl Options {
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 10.0).clamp(0.2, 5.0))
    }

    /// Length of the untraced timed run.
    pub fn timed(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }

    /// Wall-clock budget of the traced pass.
    pub fn traced_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 2.0)
    }

    /// Repetitions of each kernel measurement.
    pub fn kernel_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }
}

/// One correct statement of a timed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Index into the workload's class list.
    pub class: u8,
    /// Latency on the reference-speed clock ([`crate::calib`]).
    pub ref_ns: u64,
    /// Latency on the wall clock.
    pub raw_ns: u64,
}

/// A uniform sample of at most `cap` of the statements pushed (Vitter's
/// algorithm R), so that a run's memory does not grow with its
/// throughput: `peak_rss_mb` must not move because the host was fast. A
/// run of fewer than `cap` statements keeps them all.
#[derive(Debug)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    rng: u64,
    items: Vec<Sample>,
}

impl Reservoir {
    pub const DEFAULT_CAP: usize = 1 << 16;

    pub fn new(cap: usize) -> Reservoir {
        Reservoir {
            cap,
            seen: 0,
            rng: 0x2545_f491_4f6c_dd1d,
            items: Vec::with_capacity(cap),
        }
    }

    pub fn push(&mut self, sample: Sample) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(sample);
            return;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let slot = self.rng % self.seen;
        if (slot as usize) < self.cap {
            self.items[slot as usize] = sample;
        }
    }
}

/// What one generator thread did in a run.
#[derive(Debug, Clone, Default)]
pub struct ThreadTotals {
    pub attempted: u64,
    pub failed: u64,
    /// Wall-clock time between calibrations (the kernel runs themselves
    /// are not in it).
    pub raw_busy_ns: f64,
    /// Correct statements per reference second, one value per pass (a
    /// pass of the rotation, or a fixed number of requests).
    pub pass_qps: Vec<f64>,
    /// Rate of the reference clock in each stretch.
    pub rates: Vec<f64>,
}

/// One generator thread's recorder: times statements on the wall clock,
/// runs the reference kernel between them and converts each stretch to
/// reference speed when the kernel run that ends it is in.
pub struct Pacer<'a> {
    clock: RefClock,
    /// Correct statements of the open stretch: class and latency.
    pending: Vec<(u8, u64)>,
    sink: &'a Mutex<Reservoir>,
    /// Correct statements and reference time of the open pass.
    pass: (u64, f64),
    totals: ThreadTotals,
}

impl<'a> Pacer<'a> {
    pub fn start(sink: &'a Mutex<Reservoir>, reference: Reference) -> Pacer<'a> {
        Pacer {
            clock: RefClock::start(reference),
            pending: Vec::new(),
            sink,
            pass: (0, 0.0),
            totals: ThreadTotals::default(),
        }
    }

    pub fn record(&mut self, class: usize, latency: Duration, ok: bool) {
        self.totals.attempted += 1;
        if !ok {
            self.totals.failed += 1;
            return;
        }
        self.pending.push((class as u8, latency.as_nanos() as u64));
    }

    /// End the open stretch with a kernel run and start the next one.
    pub fn calibrate(&mut self) {
        let (wall_ns, rate) = self.clock.tick();
        self.totals.raw_busy_ns += wall_ns;
        self.totals.rates.push(rate);
        self.pass.0 += self.pending.len() as u64;
        self.pass.1 += wall_ns * rate;
        if !self.pending.is_empty() {
            let mut sink = self
                .sink
                .lock()
                .expect("no generator thread panics holding it");
            for (class, raw_ns) in self.pending.drain(..) {
                sink.push(Sample {
                    class,
                    ref_ns: (raw_ns as f64 * rate) as u64,
                    raw_ns,
                });
            }
        }
    }

    /// Close the pass that the last [`Pacer::calibrate`] ended.
    pub fn end_pass(&mut self) {
        let (ok, ref_ns) = std::mem::take(&mut self.pass);
        if ref_ns > 0.0 {
            self.totals.pass_qps.push(ok as f64 / (ref_ns / 1e9));
        }
    }

    /// Close whatever is open (a partial pass is not counted as one).
    pub fn finish(mut self) -> ThreadTotals {
        self.calibrate();
        self.totals
    }
}

/// The pooled outcome of one timed run.
#[derive(Debug, Clone, Default)]
pub struct TimedRun {
    pub samples: Vec<Sample>,
    pub threads: Vec<ThreadTotals>,
}

impl TimedRun {
    pub fn collect(sink: Mutex<Reservoir>, threads: Vec<ThreadTotals>) -> TimedRun {
        TimedRun {
            samples: sink
                .into_inner()
                .expect("no generator thread panics holding it")
                .items,
            threads,
        }
    }

    pub fn attempted(&self) -> u64 {
        self.threads.iter().map(|t| t.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.threads.iter().map(|t| t.failed).sum()
    }

    /// Reference-speed latencies in ms, optionally of one class.
    pub fn latencies_ms(&self, class: Option<usize>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| class.is_none_or(|c| usize::from(s.class) == c))
            .map(|s| s.ref_ns as f64 / 1e6)
            .collect()
    }

    /// Throughput, p50 and p95 on the reference clock, the same on the
    /// wall clock (`raw.*`), the clock's rate and the error rate.
    pub fn metrics(&self) -> Vec<Metric> {
        // Threads run side by side: their rates add. The reference-clock
        // figure is the median over passes (a burst that the kernel did
        // not see slows a few passes, not the median one); the wall-clock
        // figure is plain statements over time.
        let threads = self.threads.len() as f64;
        let throughput: f64 = self
            .threads
            .iter()
            .map(|t| stats::median(&t.pass_qps))
            .sum();
        let pass_qps: Vec<f64> = self
            .threads
            .iter()
            .flat_map(|t| t.pass_qps.iter().map(move |q| q * threads))
            .collect();
        let raw_throughput: f64 = self
            .threads
            .iter()
            .map(|t| (t.attempted - t.failed) as f64 / (t.raw_busy_ns / 1e9).max(f64::MIN_POSITIVE))
            .sum();
        let rates: Vec<f64> = self
            .threads
            .iter()
            .flat_map(|t| t.rates.iter().copied())
            .collect();
        // Statements behind the numbers (the pool may be a sample of them).
        let n = (self.attempted() - self.failed()) as usize;
        let pooled = stats::sorted(&self.latencies_ms(None));
        let raw = stats::sorted(
            &self
                .samples
                .iter()
                .map(|s| s.raw_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        );
        vec![
            Metric::scalar("throughput_qps", "1/s", throughput).with_quartiles(&pass_qps, n),
            Metric {
                q1: stats::percentile(&pooled, 25.0),
                q3: stats::percentile(&pooled, 75.0),
                n,
                ..Metric::scalar("latency_p50_ms", "ms", stats::percentile(&pooled, 50.0))
            },
            Metric {
                n,
                ..Metric::scalar("latency_p95_ms", "ms", stats::percentile(&pooled, 95.0))
            },
            Metric::scalar(
                "error_rate",
                "fraction",
                self.failed() as f64 / self.attempted().max(1) as f64,
            ),
            Metric::scalar("raw.throughput_qps", "1/s", raw_throughput),
            Metric::scalar("raw.latency_p50_ms", "ms", stats::percentile(&raw, 50.0)),
            Metric::scalar("raw.latency_p95_ms", "ms", stats::percentile(&raw, 95.0)),
            Metric::from_samples("host.speed_factor", "ratio", &rates),
        ]
    }
}

/// Run `setup` several times (a cheap set-up more often, so that its
/// median is steady; `once` for runs that do not report it) and keep the
/// last product. Each repetition drops the one before, so servers are shut
/// down and files rewritten. A long set-up ticks the clock it is handed
/// between its phases, so that it is converted to reference speed piece by
/// piece. Reports the median at reference speed (`setup_s`) and on the wall
/// clock (`raw.setup_s`).
pub fn repeat_setup<T>(
    once: bool,
    mut setup: impl FnMut(&mut RefClock) -> Result<T, String>,
) -> Result<(T, [Metric; 2]), String> {
    const MIN_REPS: usize = 5;
    const MAX_REPS: usize = 400;
    const CHEAP_BUDGET: Duration = Duration::from_millis(1500);
    let started = Instant::now();
    let mut clock = RefClock::start(Reference::cpu());
    let (mut raw_s, mut ref_s) = (Vec::new(), Vec::new());
    let mut product = None;
    while raw_s.is_empty()
        || (!once
            && (raw_s.len() < MIN_REPS
                || (raw_s.len() < MAX_REPS && started.elapsed() < CHEAP_BUDGET)))
    {
        drop(product.take());
        clock.tick();
        let (raw_before, ref_before) = (clock.raw_ns, clock.ref_ns);
        product = Some(setup(&mut clock)?);
        clock.tick();
        raw_s.push((clock.raw_ns - raw_before) / 1e9);
        ref_s.push((clock.ref_ns - ref_before) / 1e9);
    }
    let product = product.expect("the loop ran at least once");
    Ok((
        product,
        [
            Metric::from_samples("setup_s", "s", &ref_s),
            Metric::from_samples("raw.setup_s", "s", &raw_s),
        ],
    ))
}

/// `VmHWM` of this process in MB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a workload process prints.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Free-form facts held next to the numbers (`info` lines).
    pub info: Vec<(String, String)>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_metrics_pool_correct_statements_and_count_failures() {
        let sink = Mutex::new(Reservoir::new(Reservoir::DEFAULT_CAP));
        let mut pacer = Pacer::start(&sink, Reference::cpu());
        for i in 0..1000u64 {
            pacer.record((i % 2) as usize, Duration::from_micros(i + 1), i % 100 != 0);
            if i % 50 == 49 {
                pacer.calibrate();
                pacer.end_pass();
            }
        }
        let totals = pacer.finish();
        let run = TimedRun::collect(sink, vec![totals]);
        let metrics = run.metrics();
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap();
        assert_eq!((run.attempted(), run.failed()), (1000, 10));
        assert_eq!(run.samples.len(), 990);
        assert_eq!(get("error_rate").value, 0.01);
        assert_eq!(get("latency_p50_ms").n, 990);
        assert_eq!(get("raw.latency_p50_ms").value, 0.5);
        assert!(get("latency_p95_ms").value > get("latency_p50_ms").value);
        assert!(get("throughput_qps").value > 0.0 && get("host.speed_factor").value > 0.0);
        // Every statement is scaled by its own stretch's rate.
        let rates = &run.threads[0].rates;
        assert_eq!(rates.len(), 21);
        assert_eq!(run.threads[0].pass_qps.len(), 20);
        for s in &run.samples {
            let rate = s.ref_ns as f64 / s.raw_ns as f64;
            assert!(rates.iter().any(|r| (r - rate).abs() < 0.01), "{rate}");
        }
        assert_eq!(run.latencies_ms(Some(1)).len(), 500);
        assert_eq!(
            Workload::parse("embedded_spill"),
            Some(Workload::EmbeddedSpill)
        );
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut reservoir = Reservoir::new(1000);
        for i in 0..100_000u64 {
            reservoir.push(Sample {
                class: 0,
                ref_ns: i,
                raw_ns: i,
            });
        }
        assert_eq!(reservoir.items.len(), 1000);
        // A uniform sample of 0..100000 has its median near 50000.
        let mut values: Vec<u64> = reservoir.items.iter().map(|s| s.ref_ns).collect();
        values.sort_unstable();
        assert!((40_000..60_000).contains(&values[500]), "{}", values[500]);
    }

    #[test]
    fn setup_is_repeated_and_its_median_reported() {
        let mut calls = 0;
        let (last, metric) = repeat_setup(false, |clock| {
            calls += 1;
            clock.tick();
            Ok::<_, String>(calls)
        })
        .unwrap();
        assert_eq!(last, calls);
        assert!(calls >= 5 && metric[0].n == calls && metric[1].n == calls);
        assert_eq!(
            (metric[0].name.as_str(), metric[1].name.as_str()),
            ("setup_s", "raw.setup_s")
        );
        let (_, once) = repeat_setup(true, |_| Ok::<_, String>(())).unwrap();
        assert_eq!(once[0].n, 1);
        assert!(peak_rss_mb() > 0.0);
    }
}
