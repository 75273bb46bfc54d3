//! Seeded input generation, percentiles, and the result line.

use std::collections::BTreeMap;

/// SplitMix64: the benchmark's own input generator, so the inputs depend
/// only on `--seed` and never on the library under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Latency of a job that failed or was refused: infinitely late, so it
/// misses every latency limit.
pub const FAILED: f64 = f64::INFINITY;

/// Nearest-rank percentile (`q` in `0..=1`) of `samples`; failed samples
/// are `FAILED` and sort last.  `None` on an empty set.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// Windows in which the hypervisor stole at most this share of the
/// host's CPU time are calm.
pub const STEAL_LIMIT: f64 = 0.03;
/// The least share of a run's windows a timing is taken over.
pub const CALM_SHARE: f64 = 0.1;

/// Median of `values` over the calm windows, chosen by each window's
/// host CPU steal (`steal`, aligned with `values`) and never by the
/// values themselves: the windows at or under [`STEAL_LIMIT`], or the
/// calmest [`CALM_SHARE`] of them when fewer are that calm.
///
/// The speed a shared host gives this process swings by 2-5x, in bursts
/// from a fraction of a second to minutes, and that shows as steal.
/// Returns the median and the number of windows it was taken over.
pub fn calm_median(values: &[f64], steal: &[f64]) -> (f64, usize) {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let calm = order.iter().filter(|&&i| steal[i] <= STEAL_LIMIT).count();
    let keep = calm.max((values.len() as f64 * CALM_SHARE).ceil() as usize);
    let kept: Vec<f64> = order[..keep].iter().map(|&i| values[i]).collect();
    (median(&kept), keep)
}

/// Host-wide CPU time counters from the first line of `/proc/stat`, in
/// clock ticks: (stolen, total).
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already in user.
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Host CPU steal per window of a run's time axis.  [`tick`] is called
/// as the run goes; when the time crosses into another window, the
/// ticks since the last read are charged to the window left.  [`pause`]
/// closes the current window's share, so a gap in the time axis (a
/// plant restart) is charged to no window.
///
/// [`tick`]: StealMeter::tick
/// [`pause`]: StealMeter::pause
pub struct StealMeter {
    width: f64,
    open: Option<(u64, (u64, u64))>,
    ticks: BTreeMap<u64, (u64, u64)>,
}

impl StealMeter {
    pub fn new(width: f64) -> StealMeter {
        StealMeter {
            width,
            open: None,
            ticks: BTreeMap::new(),
        }
    }

    /// Note that the run is at time `t` (s).
    pub fn tick(&mut self, t: f64) {
        let w = window_of(t, self.width);
        match self.open {
            Some((open, _)) if open == w => {}
            Some(_) => {
                self.pause();
                self.open = Some((w, host_ticks()));
            }
            None => self.open = Some((w, host_ticks())),
        }
    }

    /// Charge the ticks since the last read to the open window and
    /// close it.
    pub fn pause(&mut self) {
        if let Some((w, (s0, t0))) = self.open.take() {
            let (s1, t1) = host_ticks();
            let e = self.ticks.entry(w).or_default();
            e.0 += s1.saturating_sub(s0);
            e.1 += t1.saturating_sub(t0);
        }
    }

    /// The share of host CPU time stolen in window `w`; 1 when the
    /// window was never measured, so it counts as the least calm.
    pub fn share(&self, w: u64) -> f64 {
        match self.ticks.get(&w) {
            Some(&(s, t)) if t > 0 => s as f64 / t as f64,
            _ => 1.0,
        }
    }
}

fn window_of(t: f64, width: f64) -> u64 {
    (t / width).floor().max(0.0) as u64
}

/// Per-window statistics of `(time s, value)` samples cut into
/// consecutive windows of `width` seconds from time 0: the sample rate
/// (count / width), mean, p50, p90 and host CPU steal of each non-empty
/// window.
pub struct Windows {
    pub rates: Vec<f64>,
    pub mean: Vec<f64>,
    pub p50: Vec<f64>,
    pub p90: Vec<f64>,
    pub steal: Vec<f64>,
}

pub fn windows(samples: &[(f64, f64)], width: f64, steal: &StealMeter) -> Windows {
    let mut by: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(t, v) in samples {
        by.entry(window_of(t, width)).or_default().push(v);
    }
    let mut w = Windows {
        rates: Vec::new(),
        mean: Vec::new(),
        p50: Vec::new(),
        p90: Vec::new(),
        steal: Vec::new(),
    };
    for (&k, vals) in &by {
        w.rates.push(vals.len() as f64 / width);
        w.mean.push(vals.iter().sum::<f64>() / vals.len() as f64);
        w.p50.push(percentile(vals, 0.5).unwrap_or(0.0));
        w.p90.push(percentile(vals, 0.9).unwrap_or(0.0));
        w.steal.push(steal.share(k));
    }
    w
}

/// CPU time this process has run, in seconds, from
/// `CLOCK_PROCESS_CPUTIME_ID`.  The kernel charges a task only for the
/// time its CPU actually ran it, so time the hypervisor stole from the
/// guest is not in it.
pub fn process_cpu_s() -> f64 {
    // `struct timespec` and `clockid_t` as on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call,
    // which writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer observations of one traced run: timing samples (µs) and
/// plain values, keyed by metric name.
#[derive(Default)]
pub struct Layers {
    pub samples: BTreeMap<String, Vec<f64>>,
    pub values: BTreeMap<String, f64>,
}

impl Layers {
    pub fn sample(&mut self, key: impl Into<String>, us: f64) {
        self.samples.entry(key.into()).or_default().push(us);
    }

    pub fn extend(&mut self, key: impl Into<String>, us: impl IntoIterator<Item = f64>) {
        self.samples.entry(key.into()).or_default().extend(us);
    }

    pub fn add(&mut self, key: impl Into<String>, v: f64) {
        *self.values.entry(key.into()).or_default() += v;
    }

    pub fn set(&mut self, key: impl Into<String>, v: f64) {
        self.values.insert(key.into(), v);
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or ratio base, printed beside the value.
    pub note: String,
}

/// Outcome of one benchmark run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Jobs whose output differed from the benchmark's own reference.
    pub mismatches: u64,
    /// Failed internal checks (set-up, virtual-time replay, span output).
    pub broken: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.  `rates`
    /// (with each window's steal) and `lat` are per-window; each timing
    /// reported is their median over the calm windows (see
    /// [`calm_median`]); `n` is the number of latency samples and
    /// `rss_mb` the memory high-water mark.
    #[allow(clippy::too_many_arguments)]
    pub fn end_to_end(
        &mut self,
        setup: &[f64],
        rates: &[f64],
        rate_steal: &[f64],
        lat: &Windows,
        n: usize,
        makespan_us: f64,
        rss_mb: f64,
    ) {
        self.metric(
            "setup_s",
            median(setup),
            "s",
            format!("median of {} set-ups", setup.len()),
        );
        let of = |steal: &[f64], k: usize| {
            let median_steal = median(steal) * 100.0;
            format!(
                "median of {k} calm of {} windows (median steal {median_steal:.1}%)",
                steal.len()
            )
        };
        let (v, k) = calm_median(rates, rate_steal);
        self.metric("jobs_s", v, "1/s", of(rate_steal, k));
        let (v, k) = calm_median(&lat.p50, &lat.steal);
        let note = format!("n={n}, {}", of(&lat.steal, k));
        self.metric("latency_p50_ms", v, "ms", note);
        let (v, k) = calm_median(&lat.p90, &lat.steal);
        let note = format!("n={n}, {}", of(&lat.steal, k));
        self.metric("latency_p90_ms", v, "ms", note);
        self.metric(
            "virtual_makespan_us",
            makespan_us,
            "us",
            "exact per seed".into(),
        );
        self.metric("peak_rss_mb", rss_mb, "MiB", "VmHWM".into());
    }

    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.broken.is_empty()
    }

    /// Human-readable lines, then the JSON result as the last line.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("{:<44} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.note);
        }
        println!(
            "attempted={} failed={} mismatches={}",
            self.attempted, self.failed, self.mismatches
        );
        for b in &self.broken {
            println!("check failed: {b}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip format
/// gives; an infinite latency (failed jobs past the percentile) is
/// written as `1e999`, which JSON readers take as infinity.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "1e999".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(5.0));
        assert_eq!(percentile(&s, 0.9), Some(9.0));
        assert_eq!(percentile(&s, 1.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn a_failed_job_counts_as_infinitely_late() {
        let mut s: Vec<f64> = (1..=9).map(f64::from).collect();
        s.push(FAILED);
        assert_eq!(percentile(&s, 0.9), Some(9.0));
        assert_eq!(percentile(&s, 0.91), Some(FAILED));
        s.push(FAILED);
        // Two failures of eleven put p90 past every completed job.
        assert_eq!(percentile(&s, 0.9), Some(FAILED));
        assert_eq!(json_number(FAILED), "1e999");
    }

    #[test]
    fn windows_cut_by_time_and_keep_failures() {
        let s = [
            (0.1, 1.0),
            (0.2, 3.0),
            (0.9, 2.0),
            (1.5, 5.0),
            (1.6, FAILED),
        ];
        let w = windows(&s, 1.0, &StealMeter::new(1.0));
        assert_eq!(w.rates, vec![3.0, 2.0]);
        assert_eq!(w.mean, vec![2.0, FAILED]);
        assert_eq!(w.p50, vec![2.0, 5.0]);
        assert_eq!(w.p90, vec![3.0, FAILED]);
        // Windows the meter never saw count as the least calm.
        assert_eq!(w.steal, vec![1.0, 1.0]);
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let c0 = process_cpu_s();
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 20 {
            std::hint::spin_loop();
        }
        assert!(process_cpu_s() > c0);
    }

    #[test]
    fn calm_windows_are_chosen_by_steal_not_by_value() {
        // The fastest window is the most disturbed one, and is left out.
        let v = [10.0, 20.0, 30.0, 1.0];
        let steal = [0.0, 0.01, 0.02, 0.5];
        assert_eq!(calm_median(&v, &steal), (20.0, 3));
        // Fewer than a tenth calm: the calmest tenth.
        let steal: Vec<f64> = (0..20).map(|i| 0.5 - f64::from(i) * 0.01).collect();
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(calm_median(&v, &steal), (18.0, 2));
        // A failed job's infinite latency stays in a calm window.
        let v = [1.0, FAILED, FAILED];
        assert_eq!(calm_median(&v, &[0.0; 3]).0, FAILED);
    }

    #[test]
    fn the_steal_meter_charges_each_window_its_own_ticks() {
        let mut m = StealMeter::new(1.0);
        m.tick(0.1);
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {
            std::hint::spin_loop();
        }
        m.tick(0.9);
        m.tick(1.2);
        m.pause();
        m.tick(5.0);
        m.pause();
        // 50 ms of busy host time on window 0: a measured share.
        assert!(m.share(0) < 1.0);
        for w in [1, 5] {
            assert!((0.0..=1.0).contains(&m.share(w)), "window {w}");
        }
        assert_eq!(m.share(2), 1.0);
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(8);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
