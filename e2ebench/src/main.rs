//! End-to-end benchmark of The Force reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <serve-mixed|compute-skewed|sync-heavy> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric (value, unit, sample count or ratio base),
//! then a JSON result as the last line.  `--trace 0` reports the
//! end-to-end metrics; `--trace 1` is a separate run that records spans
//! around the benchmark's calls into each layer, reports the per-layer
//! metrics and self times, and writes the spans to
//! `.bench_trace/<workload>-<seed>.jsonl`.  The exit code is non-zero
//! when any job's output differs from the benchmark's own reference or
//! a virtual-time replay diverges.  The workloads, and which per-layer
//! metric should move which end-to-end metric, are described in
//! `PREDICTIONS.md` beside this crate.

mod catalog;
mod closed;
mod measure;
mod refs;
mod serve_mixed;
mod spans;

use std::collections::HashMap;
use std::sync::Arc;

use the_force::fortran::{Engine, RunOutput};
use the_force::machdep::Machine;
use the_force::prep::{
    expansion_cache_len, expansion_cache_stats, pass_counts, preprocess_cached, ExpandedProgram,
};

use measure::{Layers, Report};
use spans::Tracer;

/// Processes per force, pool workers and dispatcher shards are sized for
/// a 2-core host: every force has 2 pids and every pool 2 workers.
pub const NPROC: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 25;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {val}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.clamp(1, 120),
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "serve-mixed" => serve_mixed::run(&args),
        "compute-skewed" => closed::run(&args, closed::Suite::Compute),
        "sync-heavy" => closed::run(&args, closed::Suite::Sync),
        other => {
            eprintln!(
                "e2ebench: unknown workload `{other}` (serve-mixed, compute-skewed, sync-heavy)"
            );
            std::process::exit(2);
        }
    };
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}

/// Nanoseconds to microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// A shared integer scalar of a language run's output.
pub fn scalar(out: &RunOutput, name: &str) -> Option<i64> {
    out.shared_scalar(name).and_then(|v| v.as_int(0).ok())
}

/// Preprocess (through the expansion cache) and load a source onto
/// `machine`, recording `prep.expand` and `fortranish.load` spans.
pub fn load(
    src: &str,
    machine: &Arc<Machine>,
    tr: &Tracer,
    job: u64,
    parent: u64,
) -> Result<(Arc<ExpandedProgram>, Engine), String> {
    let t0 = tr.now();
    let exp = preprocess_cached(src, machine.id()).map_err(|e| e.to_string())?;
    let t1 = tr.now();
    let engine = Engine::from_expanded(&exp, Arc::clone(machine)).map_err(|e| e.to_string())?;
    let t2 = tr.now();
    tr.record(0, "prep.expand", job, parent, t0, t1);
    tr.record(0, "fortranish.load", job, parent, t1, t2);
    Ok((exp, engine))
}

/// The prep layer's process-wide counters at one moment, so a stretch of
/// the run can be measured by its deltas.
pub struct PrepCounts {
    sed: u64,
    m4: u64,
    hits: u64,
    misses: u64,
}

impl PrepCounts {
    pub fn now() -> PrepCounts {
        let passes = pass_counts();
        let (hits, misses) = expansion_cache_stats();
        PrepCounts {
            sed: passes.sed,
            m4: passes.m4,
            hits,
            misses,
        }
    }

    /// Add the passes and cache lookups since `self` to `layers`, and
    /// keep the largest expansion-cache size seen at such a point.
    pub fn fold_since(&self, layers: &mut Layers) {
        let now = PrepCounts::now();
        let hits = now.hits - self.hits;
        layers.add("prep.sed_passes", (now.sed - self.sed) as f64);
        layers.add("prep.m4_passes", (now.m4 - self.m4) as f64);
        layers.add("prep.hits", hits as f64);
        layers.add("prep.lookups", (hits + now.misses - self.misses) as f64);
        let entries = layers
            .values
            .entry("prep.cache_entries".into())
            .or_default();
        *entries = entries.max(expansion_cache_len() as f64);
    }
}

/// Close a traced run: fold the spans into the per-layer metrics, print
/// each layer's self time, write the spans.
pub fn finish_trace(args: &Args, tr: &Tracer, layers: &mut Layers, report: &mut Report) {
    let spans = tr.take();
    // Per force run: pid bodies' first start, first end and last end.
    let mut pids: HashMap<u64, (u64, u64, u64)> = HashMap::new();
    for s in &spans {
        match s.name {
            "prep.expand" | "fortranish.load" => layers.sample(s.name, us(s.end - s.start)),
            "core.pid" => {
                let e = pids.entry(s.parent).or_insert((u64::MAX, u64::MAX, 0));
                *e = (e.0.min(s.start), e.1.min(s.end), e.2.max(s.end));
            }
            _ => {}
        }
    }
    for s in spans.iter().filter(|s| s.name == "session.execute") {
        if let Some(&(first_start, first_end, last_end)) = pids.get(&s.id) {
            layers.sample("session.dispatch", us(first_start.saturating_sub(s.start)));
            layers.sample("session.join", us(s.end.saturating_sub(last_end)));
            let run = (s.end - s.start).max(1) as f64;
            layers.sample("core.pid_imbalance", (last_end - first_end) as f64 / run);
        }
    }
    for (layer, (ns, count)) in spans::self_times(&spans) {
        println!(
            "self time {layer:<12} {:>12.3} ms over {count} spans",
            ns as f64 / 1e6
        );
    }
    let path = std::path::PathBuf::from(format!(
        ".bench_trace/{}-{}.jsonl",
        args.workload, args.seed
    ));
    match spans::write_jsonl(&path, &spans) {
        Ok(()) => println!("wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => report
            .broken
            .push(format!("writing {}: {e}", path.display())),
    }
    catalog::emit(layers, report);
}
