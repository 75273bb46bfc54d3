//! The per-layer metrics of the traced run: names, units, and how each
//! is derived from the raw samples and counts a workload collects.
//!
//! Every workload reports every metric; a layer the workload does not
//! exercise reads 0 with a sample count (or base) of 0.

use the_force::machdep::{MachineId, StatsSnapshot};

use crate::measure::{percentile, Layers, Report};

/// How a metric is computed from [`Layers`].
enum Source {
    /// Percentile `q` of the sample set under the key.
    Pct(String, f64),
    /// A value stored under the key.
    Value(String),
    /// `num / den`, reported with its base `den`.
    Ratio(String, String),
}

struct Entry {
    name: String,
    unit: &'static str,
    source: Source,
}

/// Job kinds whose run time `session.run_p50_us.<kind>` breaks out.
const JOB_KINDS: [&str; 7] = [
    "native",
    "warm",
    "cold",
    "skew-vm",
    "skew-guided",
    "skew-steal",
    "sync",
];

/// `StatsSnapshot` counters reported per job, per personality.
const COUNTS: [&str; 6] = [
    "lock_acquires",
    "spin_retries",
    "syscalls",
    "parks",
    "barrier_episodes",
    "steals",
];

fn e(name: impl Into<String>, unit: &'static str, source: Source) -> Entry {
    Entry {
        name: name.into(),
        unit,
        source,
    }
}

fn pct(key: impl Into<String>, q: f64) -> Source {
    Source::Pct(key.into(), q)
}

fn value(key: impl Into<String>) -> Source {
    Source::Value(key.into())
}

fn ratio(num: impl Into<String>, den: impl Into<String>) -> Source {
    Source::Ratio(num.into(), den.into())
}

fn entries() -> Vec<Entry> {
    let mut v = vec![
        e("serve.submit_p50_us", "us", pct("serve.submit", 0.5)),
        e("serve.handoff_p50_us", "us", pct("serve.handoff", 0.5)),
        e(
            "serve.queue_wait_p50_us",
            "us",
            pct("serve.queue_wait", 0.5),
        ),
        e(
            "serve.queue_wait_p90_us",
            "us",
            pct("serve.queue_wait", 0.9),
        ),
        e("serve.rejected", "count", value("serve.rejected")),
        e("serve.shed", "count", value("serve.shed")),
        e(
            "serve.deadline_exceeded",
            "count",
            value("serve.deadline_exceeded"),
        ),
        e("serve.retries", "count", value("serve.retries")),
        e("serve.gen_lag_p50_us", "us", pct("serve.gen_lag", 0.5)),
        e("serve.gen_lag_max_ms", "ms", value("serve.gen_lag_max_ms")),
        e(
            "session.dispatch_p50_us",
            "us",
            pct("session.dispatch", 0.5),
        ),
        e("session.join_p50_us", "us", pct("session.join", 0.5)),
    ];
    for kind in JOB_KINDS {
        v.push(e(
            format!("session.run_p50_us.{kind}"),
            "us",
            pct(format!("session.run.{kind}"), 0.5),
        ));
    }
    v.extend([
        e("prep.expand_p50_us", "us", pct("prep.expand", 0.5)),
        e(
            "prep.cache_hit_ratio",
            "ratio",
            ratio("prep.hits", "prep.lookups"),
        ),
        e("prep.sed_passes", "count", value("prep.sed_passes")),
        e("prep.m4_passes", "count", value("prep.m4_passes")),
        e("prep.cache_entries", "count", value("prep.cache_entries")),
        e("fortranish.load_p50_us", "us", pct("fortranish.load", 0.5)),
    ]);
    for id in MachineId::all() {
        let t = id.tag();
        v.push(e(
            format!("fortranish.run_p50_us.{t}"),
            "us",
            pct(format!("fortranish.run.{t}"), 0.5),
        ));
    }
    for id in MachineId::all() {
        let t = id.tag();
        v.push(e(
            format!("fortranish.sim_cycles.{t}"),
            "cycles",
            ratio(
                format!("fortranish.cycles.{t}"),
                format!("fortranish.runs.{t}"),
            ),
        ));
    }
    v.extend([
        e(
            "core.doall_p50_us.guided",
            "us",
            pct("core.doall.guided", 0.5),
        ),
        e(
            "core.doall_p50_us.steal",
            "us",
            pct("core.doall.steal", 0.5),
        ),
        e(
            "core.pid_imbalance",
            "ratio",
            pct("core.pid_imbalance", 0.5),
        ),
    ]);
    for op in ["barrier_wait", "critical", "produce_consume", "askfor"] {
        for id in MachineId::all() {
            let t = id.tag();
            v.push(e(
                format!("core.{op}_p50_us.{t}"),
                "us",
                pct(format!("core.{op}.{t}"), 0.5),
            ));
        }
    }
    for c in COUNTS {
        for id in MachineId::all() {
            let t = id.tag();
            v.push(e(
                format!("machdep.{c}.{t}"),
                "count",
                ratio(format!("ops.{c}.{t}"), format!("ops.jobs.{t}")),
            ));
        }
    }
    for (name, num, den) in [
        ("lock_contended_ratio", "lock_contended", "lock_acquires"),
        ("park_spurious_ratio", "park_spurious_wakes", "parks"),
        ("steal_fail_ratio", "steal_attempts_failed", "steal_probes"),
    ] {
        for id in MachineId::all() {
            let t = id.tag();
            v.push(e(
                format!("machdep.{name}.{t}"),
                "ratio",
                ratio(format!("ops.{num}.{t}"), format!("ops.{den}.{t}")),
            ));
        }
    }
    for id in MachineId::all() {
        let t = id.tag();
        v.push(e(
            format!("vtime.makespan_us.{t}"),
            "us",
            value(format!("vtime.makespan_us.{t}")),
        ));
    }
    v.push(e("vtime.decisions", "count", value("vtime.decisions")));
    v.push(e("trace.overhead_pct", "%", value("trace.overhead_pct")));
    v
}

/// Fold one job's operation counts on machine `id` into `layers`.
pub fn add_ops(layers: &mut Layers, id: MachineId, ops: &StatsSnapshot) {
    let t = id.tag();
    for (name, n) in ops.fields() {
        layers.add(format!("ops.{name}.{t}"), n as f64);
    }
    layers.add(
        format!("ops.steal_probes.{t}"),
        (ops.steals + ops.steal_attempts_failed) as f64,
    );
}

/// Emit every per-layer metric into `report`, in catalog order.
pub fn emit(layers: &Layers, report: &mut Report) {
    for entry in entries() {
        let get = |k: &str| layers.values.get(k).copied().unwrap_or(0.0);
        let (value, note) = match &entry.source {
            Source::Pct(key, q) => {
                let s = layers.samples.get(key).map(Vec::as_slice).unwrap_or(&[]);
                (percentile(s, *q).unwrap_or(0.0), format!("n={}", s.len()))
            }
            Source::Value(key) => (get(key), String::new()),
            Source::Ratio(num, den) => {
                let (n, d) = (get(num), get(den));
                (if d > 0.0 { n / d } else { 0.0 }, format!("= {n} / {d}"))
            }
        };
        report.metric(&entry.name, value, entry.unit, note);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all = entries();
        assert!(all.len() <= 128, "{} per-layer metrics", all.len());
        let mut names: Vec<&str> = all.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        for n in names {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    /// `BENCHMARK.json` lists exactly the metrics this catalog emits.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        for entry in entries() {
            let needle = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\":",
                entry.name, entry.unit
            );
            assert!(
                per_layer.contains(&needle),
                "missing from BENCHMARK.json: {needle}"
            );
        }
        assert_eq!(per_layer.matches("\"name\"").count(), entries().len());
    }
}
