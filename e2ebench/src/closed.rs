//! The closed-loop suites, `compute-skewed` and `sync-heavy`: one client
//! runs one job at a time, and each job runs its programs on all six
//! machine personalities at `NPROC` processes.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

use the_force::fortran::Engine;
use the_force::machdep::{charge_virtual, ParkBackend, StatsSnapshot, VirtualSummary};
use the_force::prelude::*;
use the_force::prep::clear_expansion_cache;

use crate::catalog::add_ops;
use crate::measure::{
    median, peak_rss_mb, percentile, process_cpu_s, windows, Layers, Report, Rng, StealMeter,
    FAILED,
};
use crate::refs::*;
use crate::spans::Tracer;
use crate::{us, Args, NPROC, SETUPS};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    Compute,
    Sync,
}

/// Trips of the language skewed loop (the VM experiments' size).
const VM_TRIPS: i64 = 96;
/// Trips and work scale of the native triangular DOALL.
const NATIVE_TRIPS: i64 = 160;
const NATIVE_SCALE: u64 = 3;
/// Seeded input variants per run; each is its own compiled source.
const VARIANTS: usize = 4;

/// Width of the windows a run is cut into, in seconds: short, so that
/// the host's calm moments between bursts of steal fill whole windows.
const WINDOW: f64 = 0.25;

const BARRIER_ROUNDS: usize = 16;
const CRIT_ROUNDS: usize = 32;
const RING_ROUNDS: usize = 16;
const ASKFOR_DEPTH: u32 = 5;

/// One `compute-skewed` input: the multiplier of the language loop and
/// the salt and direction of the native loop, with their references.
/// Every variant does the same amount of work.
struct Variant {
    c: i64,
    vm_expected: i64,
    salt: u64,
    descending: bool,
    native_expected: u64,
}

/// One `sync-heavy` input and its references.
struct SyncInput {
    base: u64,
    crit: u64,
    ring: u64,
}

impl SyncInput {
    fn new(base: u64) -> SyncInput {
        SyncInput {
            base,
            crit: sync_expected(base, CRIT_SALT, NPROC, CRIT_ROUNDS),
            ring: sync_expected(base, RING_SALT, NPROC, RING_ROUNDS),
        }
    }
}

/// One personality's resident sessions.
struct Station {
    id: MachineId,
    force: Force,
    engines: Vec<Engine>,
    ring: Option<AsyncArray<u64>>,
}

/// What one program run left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    ran: bool,
    matched: bool,
    ops: StatsSnapshot,
    vsum: Option<VirtualSummary>,
}

/// Where a program run's spans and samples go.
struct Cx<'a> {
    tr: &'a Tracer,
    layers: &'a mut Layers,
    job: u64,
    parent: u64,
    opts: RunOptions,
}

pub fn run(args: &Args, suite: Suite) -> Report {
    let mut rng = Rng::new(args.seed);
    let variants: Vec<Variant> = (0..VARIANTS)
        .map(|_| {
            let c = 1 + rng.below(9) as i64;
            let salt = rng.next_u64();
            let descending = rng.below(2) == 1;
            Variant {
                c,
                vm_expected: skew_expected(VM_TRIPS, c),
                salt,
                descending,
                native_expected: skew_native_expected(NATIVE_TRIPS, salt, descending, NATIVE_SCALE),
            }
        })
        .collect();
    let tr = Tracer::new(args.trace);
    let mut layers = Layers::default();
    let mut report = Report::default();

    let mut setup_times = Vec::new();
    let mut stations = Vec::new();
    for _ in 0..SETUPS {
        drop(std::mem::take(&mut stations));
        let t = Instant::now();
        match setup(suite, &variants, &tr, &mut layers) {
            Ok(s) => stations = s,
            Err(e) => {
                report.broken.push(format!("setup: {e}"));
                return report;
            }
        }
        setup_times.push(t.elapsed().as_secs_f64());
    }

    // A job's latency is the CPU time the process spent on it, all
    // threads together: the client waits on each job, so nothing else
    // runs meanwhile, and the kernel charges a thread only for time its
    // CPU really ran it, so time the hypervisor steals from the guest is
    // left out.  Steal slowed these loops' wall time 2-3x for minutes at
    // a time on the shared host they were sized on; wall time is printed
    // beside the metrics.  The traced run traces every other job, so the
    // overhead compares jobs from the same stretch of host time.
    let start = Instant::now();
    let total = args.seconds as f64;
    let mut lat_untraced = Vec::new();
    // (end of job in s since start, job CPU time in ms)
    let mut lat = Vec::new();
    let mut wall = Vec::new();
    let mut steal = StealMeter::new(WINDOW);
    let prep = crate::PrepCounts::now();
    let mut job = 0u64;
    while start.elapsed().as_secs_f64() < total {
        job += 1;
        let traced = args.trace && job.is_multiple_of(2);
        tr.set(traced);
        let vi = rng.below(VARIANTS as u64) as usize;
        let sync = SyncInput::new(rng.next_u64());
        let root = tr.id();
        let c0 = process_cpu_s();
        let t0 = Instant::now();
        let mut runs = Vec::new();
        for st in &stations {
            let mut cx = Cx {
                tr: &tr,
                layers: &mut layers,
                job,
                parent: root,
                opts: RunOptions::default(),
            };
            let r = match suite {
                Suite::Compute => compute_job(st, &variants[vi], vi, &mut cx),
                Suite::Sync => sync_job(st, &sync, &mut cx),
            };
            if traced {
                layers.add(format!("ops.jobs.{}", st.id.tag()), 1.0);
            }
            runs.extend(r);
        }
        let t1 = Instant::now();
        let c1 = process_cpu_s();
        steal.tick((t1 - start).as_secs_f64());
        tr.record(root, "bench.job", job, 0, tr.at(t0), tr.at(t1));
        report.attempted += 1;
        let failed = runs.iter().any(|r| !r.ran || !r.matched);
        if runs.iter().any(|r| r.ran && !r.matched) {
            report.mismatches += 1;
        }
        let ms = if failed {
            report.failed += 1;
            FAILED
        } else {
            (c1 - c0) * 1e3
        };
        if traced || !args.trace {
            lat.push(((t1 - start).as_secs_f64(), ms));
            wall.push((t1 - t0).as_secs_f64() * 1e3);
        } else {
            lat_untraced.push(ms);
        }
    }
    steal.pause();
    prep.fold_since(&mut layers);
    tr.set(args.trace);

    let (makespan_us, decisions) = virtual_pass(
        suite,
        &stations,
        &variants,
        &SyncInput::new(args.seed),
        args.seed,
        &mut layers,
        &mut report,
    );
    layers.set("vtime.decisions", decisions as f64);

    if args.trace {
        let traced: Vec<f64> = lat.iter().map(|&(_, ms)| ms).collect();
        layers.set(
            "trace.overhead_pct",
            (median(&traced) / median(&lat_untraced) - 1.0) * 100.0,
        );
        crate::finish_trace(args, &tr, &mut layers, &mut report);
    } else {
        println!(
            "wall time per job: p50 {:.4} ms, p90 {:.4} ms over {} jobs (not a metric)",
            median(&wall),
            percentile(&wall, 0.9).unwrap_or(0.0),
            wall.len()
        );
        // The job running when time ran out ends in a partial window.
        lat.retain(|&(t, _)| t < total);
        let w = windows(&lat, WINDOW, &steal);
        // The client's rate in each window: jobs per CPU-second.
        let rates: Vec<f64> = w.mean.iter().map(|ms| 1e3 / ms).collect();
        report.end_to_end(
            &setup_times,
            &rates,
            &w.steal,
            &w,
            lat.len(),
            makespan_us,
            peak_rss_mb(),
        );
    }
    report
}

/// Build the six stations: machine, 2-worker pool, pooled sessions,
/// the cold-compiled workload sources, and one warm-up job each.
fn setup(
    suite: Suite,
    variants: &[Variant],
    tr: &Tracer,
    layers: &mut Layers,
) -> Result<Vec<Station>, String> {
    clear_expansion_cache();
    let mut stations = Vec::new();
    for id in MachineId::all() {
        let machine = Machine::new(id);
        let pool = std::sync::Arc::new(ForcePool::new(NPROC, machine.stats()));
        let force = Force::with_machine(NPROC, machine.clone()).with_pool(pool.clone());
        let mut engines = Vec::new();
        if suite == Suite::Compute {
            for v in variants {
                let (_, engine) = crate::load(&skew_source(VM_TRIPS, v.c), &machine, tr, 0, 0)?;
                engine.set_pool(pool.clone());
                engines.push(engine);
            }
        }
        let ring = (suite == Suite::Sync).then(|| AsyncArray::new(&machine, NPROC));
        let st = Station {
            id,
            force,
            engines,
            ring,
        };
        let mut cx = Cx {
            tr,
            layers,
            job: 0,
            parent: 0,
            opts: RunOptions::default(),
        };
        let warm = match suite {
            Suite::Compute => compute_job(&st, &variants[0], 0, &mut cx),
            Suite::Sync => sync_job(&st, &SyncInput::new(7), &mut cx),
        };
        if warm.iter().any(|r| !r.ran || !r.matched) {
            return Err(format!("warm-up job failed on {}", id.tag()));
        }
        stations.push(st);
    }
    Ok(stations)
}

/// Run one native program on a station's session, stamping the run
/// and each pid body when tracing.
fn native<F>(st: &Station, kind: &'static str, cx: &mut Cx, body: F) -> Run
where
    F: Fn(&Player, u64) + Sync,
{
    let (tr, job) = (cx.tr, cx.job);
    let exec = tr.id();
    let t0 = tr.now();
    let result = st.force.try_execute_with(cx.opts, |p| {
        if !tr.on() {
            return body(p, 0);
        }
        let span = tr.id();
        let s = tr.now();
        body(p, span);
        tr.record(span, "core.pid", job, exec, s, tr.now());
    });
    let t1 = tr.now();
    let ops = st.force.last_job_stats().unwrap_or_default();
    if tr.on() {
        tr.record(exec, "session.execute", job, cx.parent, t0, t1);
        cx.layers.sample(format!("session.run.{kind}"), us(t1 - t0));
        add_ops(cx.layers, st.id, &ops);
    }
    let vsum = cx
        .opts
        .backend
        .is_virtual()
        .then(|| st.force.last_virtual_summary())
        .flatten();
    Run {
        ran: result.is_ok(),
        matched: true,
        ops,
        vsum,
    }
}

/// The `compute-skewed` job on one station: the language skewed loop on
/// the bytecode VM, then the native triangular DOALL under `Guided` and
/// `Steal`.
fn compute_job(st: &Station, v: &Variant, vi: usize, cx: &mut Cx) -> Vec<Run> {
    let tr = cx.tr;
    let tag = st.id.tag();
    let exec = tr.id();
    let t0 = tr.now();
    let out = st.engines[vi].run_with(NPROC, cx.opts);
    let t1 = tr.now();
    let mut runs = vec![match out {
        Ok(o) => {
            if tr.on() {
                tr.record(exec, "fortranish.run", cx.job, cx.parent, t0, t1);
                cx.layers
                    .sample(format!("fortranish.run.{tag}"), us(t1 - t0));
                cx.layers.sample("session.run.skew-vm", us(t1 - t0));
                cx.layers
                    .add(format!("fortranish.cycles.{tag}"), o.cycles as f64);
                cx.layers.add(format!("fortranish.runs.{tag}"), 1.0);
                add_ops(cx.layers, st.id, &o.stats);
            }
            let vsum = cx
                .opts
                .backend
                .is_virtual()
                .then(|| st.engines[vi].fault_plane(NPROC).virtual_summary())
                .flatten();
            let matched = crate::scalar(&o, "CHK") == Some(v.vm_expected);
            Run {
                ran: true,
                matched,
                ops: o.stats,
                vsum,
            }
        }
        Err(_) => Run {
            ran: false,
            matched: false,
            ops: StatsSnapshot::default(),
            vsum: None,
        },
    }];
    for (policy, name, kind) in [
        (
            SchedulePolicy::Guided { min_chunk: 1 },
            "guided",
            "skew-guided",
        ),
        (SchedulePolicy::Steal, "steal", "skew-steal"),
    ] {
        let acc = AtomicU64::new(0);
        let samples = Mutex::new(Vec::new());
        let (job, priced) = (cx.job, cx.opts.backend.is_virtual());
        let mut run = native(st, kind, cx, |p, span| {
            let s = tr.now();
            p.doall_with(policy, ForceRange::to(1, NATIVE_TRIPS), |i| {
                if priced {
                    let rounds = skew_rounds(i, NATIVE_TRIPS, v.descending, NATIVE_SCALE);
                    charge_virtual(rounds * CYCLES_PER_ROUND);
                }
                acc.fetch_add(
                    skew_trip(i, NATIVE_TRIPS, v.salt, v.descending, NATIVE_SCALE),
                    Relaxed,
                );
            });
            if tr.on() {
                let e = tr.now();
                tr.record(0, "core.doall", job, span, s, e);
                samples.lock().expect("sample sink").push(us(e - s));
            }
        });
        run.matched = acc.into_inner() == v.native_expected;
        cx.layers.extend(
            format!("core.doall.{name}"),
            samples.into_inner().expect("sample sink"),
        );
        runs.push(run);
    }
    runs
}

/// Time `f` into `out` when tracing.
fn timed<R>(on: bool, out: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let s = Instant::now();
    let r = f();
    out.push(s.elapsed().as_secs_f64() * 1e6);
    r
}

/// The `sync-heavy` program on one station: barrier rounds with a
/// barrier section, a named critical section, a produce/consume ring
/// over asynchronous variables, and an Askfor binary tree.
fn sync_job(st: &Station, inp: &SyncInput, cx: &mut Cx) -> Vec<Run> {
    let tr = cx.tr;
    let job = cx.job;
    let ring = st.ring.as_ref().expect("sync stations own a ring");
    let sections = AtomicU64::new(0);
    // Updated with a plain load/store, so a broken critical section
    // loses updates and the sum shows it.
    let acc = AtomicU64::new(0);
    let ring_sum = AtomicU64::new(0);
    let leaves = AtomicU64::new(0);
    let handled = AtomicU64::new(0);
    let timings = Mutex::new(vec![Vec::new(); 4]);
    let mut run = native(st, "sync", cx, |p, span| {
        let on = tr.on();
        let me = p.pid();
        let left = (me + NPROC - 1) % NPROC;
        let mut t = vec![Vec::new(); 4];
        let phase = |name: &'static str, s: u64| {
            if on {
                tr.record(0, name, job, span, s, tr.now());
            }
        };
        let s = tr.now();
        for _ in 0..BARRIER_ROUNDS {
            timed(on, &mut t[0], || {
                p.barrier_section(|| sections.fetch_add(1, Relaxed))
            });
        }
        phase("core.barrier", s);
        let s = tr.now();
        for k in 0..CRIT_ROUNDS {
            let v = sync_value(inp.base, CRIT_SALT, me, k);
            timed(on, &mut t[1], || {
                p.critical("ACC", || acc.store(acc.load(Relaxed) + v, Relaxed))
            });
        }
        phase("core.critical", s);
        let s = tr.now();
        for k in 0..RING_ROUNDS {
            let v = sync_value(inp.base, RING_SALT, me, k);
            timed(on, &mut t[2], || {
                ring.produce(me, v);
                ring_sum.fetch_add(ring.consume(left), Relaxed);
            });
        }
        phase("core.async", s);
        let s = tr.now();
        timed(on, &mut t[3], || {
            p.askfor(
                || vec![ASKFOR_DEPTH],
                |d, pot| {
                    handled.fetch_add(1, Relaxed);
                    if d > 0 {
                        pot.post(d - 1);
                        pot.post(d - 1);
                    } else {
                        leaves.fetch_add(1, Relaxed);
                    }
                },
            )
        });
        phase("core.askfor", s);
        if on {
            let mut all = timings.lock().expect("timing sink");
            for (dst, src) in all.iter_mut().zip(t) {
                dst.extend(src);
            }
        }
    });
    run.matched = sections.into_inner() == BARRIER_ROUNDS as u64
        && acc.into_inner() == inp.crit
        && ring_sum.into_inner() == inp.ring
        && (leaves.into_inner(), handled.into_inner()) == askfor_expected(ASKFOR_DEPTH);
    let tag = st.id.tag();
    let t = timings.into_inner().expect("timing sink");
    for (op, samples) in ["barrier_wait", "critical", "produce_consume", "askfor"]
        .into_iter()
        .zip(t)
    {
        cx.layers.extend(format!("core.{op}.{tag}"), samples);
    }
    vec![run]
}

/// Run every program of one job twice per personality under the
/// deterministic virtual-time scheduler with the same seed; the two
/// passes must agree on summaries, op counts and outputs.  Returns the
/// summed virtual makespan in µs and the scheduling decisions taken.
fn virtual_pass(
    suite: Suite,
    stations: &[Station],
    variants: &[Variant],
    sync: &SyncInput,
    seed: u64,
    layers: &mut Layers,
    report: &mut Report,
) -> (f64, u64) {
    let tr = Tracer::new(false);
    let mut discarded = Layers::default();
    let (mut total_ns, mut total_decisions) = (0u64, 0u64);
    for st in stations {
        let mut pass = || {
            let mut cx = Cx {
                tr: &tr,
                layers: &mut discarded,
                job: 0,
                parent: 0,
                opts: RunOptions {
                    backend: ParkBackend::Virtual { seed },
                    ..RunOptions::default()
                },
            };
            match suite {
                Suite::Compute => compute_job(st, &variants[0], 0, &mut cx),
                Suite::Sync => sync_job(st, sync, &mut cx),
            }
        };
        let (a, b) = (pass(), pass());
        let tag = st.id.tag();
        if a != b {
            report
                .broken
                .push(format!("virtual replay diverged on {tag}"));
        }
        if a.iter().any(|r| !r.ran || !r.matched || r.vsum.is_none()) {
            report.broken.push(format!("virtual run failed on {tag}"));
        }
        let ns: u64 = a.iter().filter_map(|r| r.vsum).map(|v| v.makespan_ns).sum();
        let decisions: u64 = a.iter().filter_map(|r| r.vsum).map(|v| v.decisions).sum();
        total_ns += ns;
        total_decisions += decisions;
        layers.set(format!("vtime.makespan_us.{tag}"), ns as f64 / 1e3);
    }
    (total_ns as f64 / 1e3, total_decisions)
}
