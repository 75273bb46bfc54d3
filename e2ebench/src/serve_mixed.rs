//! `serve-mixed`: a `ForceServer` on Encore Multimax serving 8 tenants a
//! mix of native small jobs, warm language jobs on resident engines, and
//! cold language jobs compiled from a fresh source each.
//!
//! Phase 1 is an open loop at a fixed rate and gives the latency
//! metrics; phase 2 keeps a fixed number of jobs outstanding and gives
//! `jobs_s`.  One generator thread submits every job and observes every
//! outcome: each runner reports back when it returns, and the generator
//! then reads that job's outcome from its handle.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use the_force::fortran::{Engine, RunOutput};
use the_force::machdep::{
    charge_virtual, ForceServer, JobError, JobHandle, JobRunner, JobSpec, ParkBackend, Priority,
    ServerConfig, StatsSnapshot, Submit,
};
use the_force::prelude::*;
use the_force::prep::{clear_expansion_cache, preprocess_cached, ExpandedProgram};

use crate::catalog::add_ops;
use crate::measure::{median, peak_rss_mb, windows, Layers, Report, Rng, StealMeter, FAILED};
use crate::refs::*;
use crate::spans::Tracer;
use crate::{us, Args, NPROC, SETUPS};

/// Open-loop arrival rate, jobs per second.  Fixed, never calibrated;
/// low enough that the server stays lightly loaded when the host runs
/// slow, so queueing does not multiply host noise into the latencies.
const RATE: f64 = 400.0;
/// Share of `--seconds` spent in the open loop; the rest saturates.
const OPEN_SHARE: f64 = 0.7;
/// Width of the windows the phases are cut into, in seconds: 100
/// arrivals per open-loop window.  Short, so that the host's calm
/// moments between bursts of steal fill whole windows.
const OPEN_WINDOW: f64 = 0.25;
const SAT_WINDOW: f64 = 0.25;
/// How long before an arrival the generator stops sleeping and polls.
const SPIN_AHEAD: Duration = Duration::from_micros(150);
/// Plants each phase runs on in turn, each freshly set up.  The OS
/// places the generator, dispatcher and pool threads once per plant, and
/// that placement alone moved a run's p50 between 0.10 and 0.14 ms; the
/// median over windows of several placements follows the code.
const OPEN_PLANTS: usize = 3;
const SAT_PLANTS: usize = 6;
/// Jobs kept outstanding in the saturation phase.
const OUTSTANDING: usize = 8;
const TENANTS: u64 = 8;
/// Resident warm sources.
const WARM: usize = 4;
/// Deadline carried by one job in four; long enough never to fire.
const DEADLINE: Duration = Duration::from_secs(30);
const MACHINE: MachineId = MachineId::EncoreMultimax;

#[derive(Clone, Copy)]
enum Kind {
    Native(u64),
    Warm(usize),
    Cold(i64),
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Native(_) => "native",
            Kind::Warm(_) => "warm",
            Kind::Cold(_) => "cold",
        }
    }
}

struct JobIn {
    kind: Kind,
    tenant: u64,
    high: bool,
    deadline: bool,
}

/// Seeded job mix: 60% native, 20% warm, 20% cold; 1 in 8 `High`
/// priority; 1 in 4 with a deadline.  Cold sources are distinct for the
/// whole process, so every cold job misses the expansion cache.
struct Mix {
    rng: Rng,
    cold_base: i64,
    cold_seq: i64,
}

impl Mix {
    fn next(&mut self) -> JobIn {
        let r = &mut self.rng;
        let kind = match r.below(10) {
            0..=5 => Kind::Native(r.next_u64()),
            6 | 7 => Kind::Warm(r.below(WARM as u64) as usize),
            _ => {
                self.cold_seq += 1;
                Kind::Cold(self.cold_base + self.cold_seq)
            }
        };
        JobIn {
            kind,
            tenant: r.below(TENANTS),
            high: r.below(8) == 0,
            deadline: r.below(4) == 0,
        }
    }
}

struct WarmEngine {
    src: String,
    exp: Arc<ExpandedProgram>,
    engine: Arc<Engine>,
    expected: i64,
}

/// The served system: machine, pool, pooled native session, resident
/// warm engines and the server.
struct Plant {
    machine: Arc<Machine>,
    pool: Arc<ForcePool>,
    force: Arc<Force>,
    warm: Vec<WarmEngine>,
    server: ForceServer,
    /// Simulated cycles and runs of the language jobs (traced run).
    cycles: Arc<(AtomicU64, AtomicU64)>,
}

fn setup(warm_c: &[i64], tr: &Tracer) -> Result<Plant, String> {
    clear_expansion_cache();
    let machine = Machine::new(MACHINE);
    let pool = Arc::new(ForcePool::new(NPROC, machine.stats()));
    let force = Arc::new(Force::with_machine(NPROC, machine.clone()).with_pool(pool.clone()));
    let mut warm = Vec::new();
    for &c in warm_c {
        let src = served_source(c);
        let (exp, engine) = crate::load(&src, &machine, tr, 0, 0)?;
        engine.set_pool(pool.clone());
        let engine = Arc::new(engine);
        let out = engine
            .run_with(NPROC, RunOptions::default())
            .map_err(|e| e.to_string())?;
        if crate::scalar(&out, "TOTAL") != Some(served_expected(c)) {
            return Err("warm-up language job produced a wrong total".into());
        }
        warm.push(WarmEngine {
            src,
            exp,
            engine,
            expected: served_expected(c),
        });
    }
    let acc = AtomicU64::new(0);
    force
        .try_execute_with(RunOptions::default(), |p| small_body(p, 0, &acc, false))
        .map_err(|f| f.to_string())?;
    if acc.into_inner() != small_expected(0, NPROC) {
        return Err("warm-up native job produced a wrong sum".into());
    }
    let server = ForceServer::new(
        ServerConfig {
            tenant_queue_capacity: 1 << 16,
            shed_watermark: 1 << 20,
            ..ServerConfig::default()
        },
        machine.stats(),
    );
    Ok(Plant {
        machine,
        pool,
        force,
        warm,
        server,
        cycles: Arc::new((AtomicU64::new(0), AtomicU64::new(0))),
    })
}

/// The native small job: barrier, busy work, barrier.
fn small_body(p: &Player, x: u64, acc: &AtomicU64, priced: bool) {
    p.barrier();
    acc.fetch_add(busy(x ^ p.pid() as u64, small_rounds(x)), Relaxed);
    if priced {
        charge_virtual(small_rounds(x) * CYCLES_PER_ROUND);
    }
    p.barrier();
}

/// Sent by a runner when it returns.
struct Done {
    idx: usize,
    enter: Instant,
    exit: Instant,
    matched: bool,
    /// Time in the facade runner (the force or language run), µs.
    exec_us: f64,
}

/// Span ids of one job, taken at submission.
#[derive(Clone, Copy)]
struct Ids {
    job: u64,
    root: u64,
    runner: u64,
    exec: u64,
}

/// What a job's runner leaves for its wrapper: the output to compare
/// with the reference (a native job's summed pid results; 1 once a
/// language job's `TOTAL` matched) and the facade run's time.
#[derive(Default)]
struct Probe {
    out: AtomicU64,
    exec_ns: AtomicU64,
}

/// Time a facade runner (`session.execute` for a native force run,
/// `fortranish.run` for a language run) into `probe`.
fn exec_span(
    mut f: JobRunner,
    name: &'static str,
    tr: Arc<Tracer>,
    ids: Ids,
    probe: Arc<Probe>,
) -> JobRunner {
    Box::new(move |cx| {
        let s = tr.now();
        let r = f(cx);
        let e = tr.now();
        tr.record(ids.exec, name, ids.job, ids.runner, s, e);
        probe.exec_ns.store(e - s, Relaxed);
        r
    })
}

/// A language job's output hook: check `TOTAL`, count simulated cycles.
fn lang_output(
    expected: i64,
    probe: Arc<Probe>,
    plant: &Plant,
    tr: &Arc<Tracer>,
) -> impl FnMut(RunOutput) + Send + 'static {
    let (cycles, tr) = (Arc::clone(&plant.cycles), Arc::clone(tr));
    move |out| {
        if crate::scalar(&out, "TOTAL") == Some(expected) {
            probe.out.store(1, Relaxed);
        }
        if tr.on() {
            cycles.0.fetch_add(out.cycles, Relaxed);
            cycles.1.fetch_add(1, Relaxed);
        }
    }
}

/// Build the runner for one job: the facade's runner for its kind,
/// wrapped to stamp entry and exit, check the output against the
/// reference, and report back to the generator.
fn runner(
    plant: &Plant,
    job: &JobIn,
    idx: usize,
    ids: Ids,
    tr: &Arc<Tracer>,
    tx: Sender<Done>,
) -> JobRunner {
    let probe = Arc::new(Probe::default());
    let (mut inner, expected): (JobRunner, u64) = match job.kind {
        Kind::Native(x) => {
            let (t, p2) = (Arc::clone(tr), Arc::clone(&probe));
            let f = plant.force.serve_runner(RunOptions::default(), move |p| {
                if !t.on() {
                    return small_body(p, x, &p2.out, false);
                }
                let s = t.now();
                small_body(p, x, &p2.out, false);
                t.record(0, "core.pid", ids.job, ids.exec, s, t.now());
            });
            (
                exec_span(f, "session.execute", Arc::clone(tr), ids, probe.clone()),
                small_expected(x, NPROC),
            )
        }
        Kind::Warm(v) => {
            let w = &plant.warm[v];
            let f = w.engine.serve_runner(
                NPROC,
                RunOptions::default(),
                lang_output(w.expected, probe.clone(), plant, tr),
            );
            let (src, exp, t) = (w.src.clone(), Arc::clone(&w.exp), Arc::clone(tr));
            let mut f = exec_span(f, "fortranish.run", Arc::clone(tr), ids, probe.clone());
            // A warm job looks its source up in the expansion cache (a
            // hit) and runs on the engine resident for that expansion.
            let f: JobRunner = Box::new(move |cx| {
                let s = t.now();
                let hit = preprocess_cached(&src, MACHINE)
                    .map_err(|e| JobError::Deterministic(e.to_string()))?;
                t.record(0, "prep.lookup", ids.job, ids.runner, s, t.now());
                if !Arc::ptr_eq(&hit, &exp) {
                    return Err(JobError::Deterministic(
                        "expansion cache missed a resident source".into(),
                    ));
                }
                f(cx)
            });
            (f, 1)
        }
        Kind::Cold(c) => {
            let (machine, pool, t, p2) = (
                plant.machine.clone(),
                plant.pool.clone(),
                Arc::clone(tr),
                probe.clone(),
            );
            let mut on_output = Some(lang_output(served_expected(c), probe.clone(), plant, tr));
            let f: JobRunner = Box::new(move |cx| {
                let (_, engine) = crate::load(&served_source(c), &machine, &t, ids.job, ids.runner)
                    .map_err(JobError::Deterministic)?;
                engine.set_pool(pool.clone());
                let hook = on_output.take().expect("a cold job runs once");
                let f = Arc::new(engine).serve_runner(NPROC, RunOptions::default(), hook);
                exec_span(f, "fortranish.run", Arc::clone(&t), ids, p2.clone())(cx)
            });
            (f, 1)
        }
    };
    let tr = Arc::clone(tr);
    Box::new(move |cx| {
        let enter = Instant::now();
        let r = inner(cx);
        let exit = Instant::now();
        tr.record(
            ids.runner,
            "serve.runner",
            ids.job,
            ids.root,
            tr.at(enter),
            tr.at(exit),
        );
        let matched = probe.out.load(Relaxed) == expected;
        let exec_us = us(probe.exec_ns.load(Relaxed));
        let _ = tx.send(Done {
            idx,
            enter,
            exit,
            matched,
            exec_us,
        });
        r
    })
}

struct Pending {
    handle: JobHandle,
    kind: &'static str,
    due: Instant,
    sub0: Instant,
    sub1: Instant,
    ids: Ids,
}

/// The generator: submits jobs and observes outcomes.
struct Gen<'a> {
    plant: Plant,
    tr: &'a Arc<Tracer>,
    tx: Sender<Done>,
    rx: Receiver<Done>,
    pending: HashMap<usize, Pending>,
    next: usize,
    layers: Layers,
    report: Report,
    /// Start of the current segment, and the phase time it starts at.
    origin: Instant,
    base: f64,
    open: bool,
    /// Open loop: (due, latency ms due → observed) per job, failures
    /// infinitely late.
    latency: Vec<(f64, f64)>,
    /// Saturation: when each completed job was observed.
    done_at: Vec<(f64, f64)>,
    /// Host CPU steal per window of the current phase.
    steal: StealMeter,
    /// The prep counters when the current open-loop segment started.
    prep: Option<crate::PrepCounts>,
}

impl Gen<'_> {
    fn submit(&mut self, job: JobIn, due: Instant) {
        let idx = self.next;
        self.next += 1;
        let tr = self.tr;
        let ids = Ids {
            job: idx as u64 + 1,
            root: tr.id(),
            runner: tr.id(),
            exec: tr.id(),
        };
        let r = runner(&self.plant, &job, idx, ids, tr, self.tx.clone());
        let mut spec =
            JobSpec::for_tenant(format!("tenant-{}", job.tenant)).with_priority(if job.high {
                Priority::High
            } else {
                Priority::Normal
            });
        if job.deadline {
            spec = spec.with_deadline(DEADLINE);
        }
        self.report.attempted += 1;
        let sub0 = Instant::now();
        let verdict = self.plant.server.submit(spec, r);
        let sub1 = Instant::now();
        tr.record(
            0,
            "serve.submit",
            ids.job,
            ids.root,
            tr.at(sub0),
            tr.at(sub1),
        );
        if self.open {
            if tr.on() {
                let submit = us(tr.at(sub1) - tr.at(sub0));
                self.layers.sample("serve.submit", submit);
            }
            let lag = sub0.saturating_duration_since(due).as_secs_f64() * 1e6;
            self.layers.sample("serve.gen_lag", lag);
            let max = self
                .layers
                .values
                .entry("serve.gen_lag_max_ms".into())
                .or_default();
            *max = max.max(lag / 1e3);
        }
        match verdict {
            Submit::Admitted(handle) => {
                let p = Pending {
                    handle,
                    kind: job.kind.name(),
                    due,
                    sub0,
                    sub1,
                    ids,
                };
                self.pending.insert(idx, p);
            }
            Submit::Rejected { .. } => self.fail(due),
        }
    }

    fn since(&self, t: Instant) -> f64 {
        self.base + t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Observe every outstanding job, then replace the plant with a
    /// freshly set-up one.
    fn restart(&mut self, warm_c: &[i64]) -> Result<(), String> {
        self.end_segment();
        self.fold_server();
        self.plant = setup(warm_c, self.tr)?;
        self.prep = self.open.then(crate::PrepCounts::now);
        Ok(())
    }

    /// Observe every outstanding job and fold the segment's prep counts.
    fn end_segment(&mut self) {
        self.drain();
        self.steal.pause();
        if let Some(prep) = self.prep.take() {
            prep.fold_since(&mut self.layers);
        }
    }

    /// Fold the plant's server counts, per-job op counts and language-run
    /// cycles into the per-layer observations.
    fn fold_server(&mut self) {
        if !self.tr.on() {
            return;
        }
        let (l, plant, tag) = (&mut self.layers, &self.plant, MACHINE.tag());
        let s = plant.server.server_report();
        l.add("serve.rejected", s.rejected as f64);
        l.add("serve.shed", s.shed as f64);
        l.add("serve.deadline_exceeded", s.deadline_exceeded as f64);
        l.add("serve.retries", s.retries as f64);
        let mut ops = StatsSnapshot::default();
        for (_, t) in &s.tenants {
            ops.merge(&t.ops);
        }
        add_ops(l, MACHINE, &ops);
        l.add(format!("ops.jobs.{tag}"), s.completed as f64);
        let cycles = &plant.cycles;
        l.add(
            format!("fortranish.cycles.{tag}"),
            cycles.0.load(Relaxed) as f64,
        );
        l.add(
            format!("fortranish.runs.{tag}"),
            cycles.1.load(Relaxed) as f64,
        );
    }

    fn fail(&mut self, due: Instant) {
        self.report.failed += 1;
        if self.open {
            self.latency.push((self.since(due), FAILED));
        }
    }

    fn observe(&mut self, done: Done) {
        let Some(p) = self.pending.remove(&done.idx) else {
            return; // a retried attempt of an already observed job
        };
        let outcome = p.handle.wait();
        let obs = Instant::now();
        if !outcome.is_success() {
            return self.fail(p.due);
        }
        if !done.matched {
            self.report.mismatches += 1;
            return self.fail(p.due);
        }
        if self.open {
            let ms = (obs - p.due).as_secs_f64() * 1e3;
            self.latency.push((self.since(p.due), ms));
        } else {
            self.done_at.push((self.since(obs), 0.0));
        }
        let tr = self.tr;
        if !tr.on() {
            return;
        }
        let at = |t: Instant| tr.at(t);
        // Per-job samples describe the open loop, as the latencies do.
        if self.open {
            let l = &mut self.layers;
            l.sample(
                "serve.queue_wait",
                us(at(done.enter).saturating_sub(at(p.sub1))),
            );
            l.sample("serve.handoff", us(at(obs).saturating_sub(at(done.exit))));
            l.sample(
                format!("session.run.{}", p.kind),
                us(at(done.exit) - at(done.enter)),
            );
            if p.kind != "native" {
                l.sample(format!("fortranish.run.{}", MACHINE.tag()), done.exec_us);
            }
        }
        {
            let (job, root) = (p.ids.job, p.ids.root);
            tr.record(
                0,
                "serve.gen_lag",
                job,
                root,
                at(p.due).min(at(p.sub0)),
                at(p.sub0),
            );
            tr.record(0, "serve.queue", job, root, at(p.sub1), at(done.enter));
            tr.record(0, "serve.handoff", job, root, at(done.exit), at(obs));
            tr.record(
                root,
                "serve.job",
                job,
                0,
                at(p.due).min(at(p.sub0)),
                at(obs),
            );
        }
    }

    /// Observe completions until `due`.  The generator sleeps until
    /// `SPIN_AHEAD` before it and then polls, so timer slack does not
    /// make it late.  (The generator holds a sender, so the channel
    /// never disconnects.)
    fn pump_until(&mut self, due: Instant) {
        loop {
            let left = due.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            let got = if left > SPIN_AHEAD {
                self.rx.recv_timeout(left - SPIN_AHEAD).ok()
            } else {
                let got = self.rx.try_recv().ok();
                if got.is_none() {
                    std::thread::yield_now();
                }
                got
            };
            if let Some(d) = got {
                self.observe(d);
            }
        }
    }

    /// Observe the next completion.  False if none came for 5 s.
    fn pump_one(&mut self) -> bool {
        match self.rx.recv_timeout(Duration::from_secs(5)) {
            Ok(d) => {
                self.observe(d);
                true
            }
            Err(_) => false,
        }
    }

    /// Observe every outstanding job; jobs that never ran are failures.
    fn drain(&mut self) {
        while !self.pending.is_empty() && self.pump_one() {}
        for (_, p) in std::mem::take(&mut self.pending) {
            p.handle.wait();
            self.fail(p.due);
        }
    }
}

pub fn run(args: &Args) -> Report {
    let mut rng = Rng::new(args.seed);
    let warm_c: Vec<i64> = (0..WARM).map(|_| 1 + rng.below(999) as i64).collect();
    let tr = Arc::new(Tracer::new(args.trace));
    let mut report = Report::default();
    let mut setup_times = Vec::new();
    let mut plant = None;
    for _ in 0..SETUPS {
        drop(plant.take());
        let t = Instant::now();
        match setup(&warm_c, &tr) {
            Ok(p) => plant = Some(p),
            Err(e) => {
                report.broken.push(format!("setup: {e}"));
                return report;
            }
        }
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let (tx, rx) = channel();
    let mix = &mut Mix {
        rng,
        cold_base: 1_000 + (args.seed % 1_000) as i64 * 1_000_000,
        cold_seq: 0,
    };
    let mut g = Gen {
        plant: plant.expect("at least one set-up"),
        tr: &tr,
        tx,
        rx,
        pending: HashMap::new(),
        next: 0,
        layers: Layers::default(),
        report,
        origin: Instant::now(),
        base: 0.0,
        open: true,
        latency: Vec::new(),
        done_at: Vec::new(),
        steal: StealMeter::new(OPEN_WINDOW),
        prep: Some(crate::PrepCounts::now()),
    };

    // Each phase runs its segments on freshly set-up plants.
    let restart = |g: &mut Gen, k: usize| match k {
        0 => Ok(()),
        _ => g.restart(&warm_c),
    };

    // Phase 1: open loop, evenly spaced arrivals.
    let seg_secs = args.seconds as f64 * OPEN_SHARE / OPEN_PLANTS as f64;
    let seg_jobs = (RATE * seg_secs).round().max(1.0) as usize;
    for k in 0..OPEN_PLANTS {
        if let Err(e) = restart(&mut g, k) {
            g.report.broken.push(format!("setup: {e}"));
            return g.report;
        }
        let t0 = Instant::now();
        (g.origin, g.base) = (t0, k as f64 * seg_secs);
        for i in 0..seg_jobs {
            let due = t0 + Duration::from_secs_f64(i as f64 / RATE);
            g.pump_until(due);
            g.steal.tick(g.since(due));
            g.submit(mix.next(), due);
        }
    }
    g.end_segment();
    g.open = false;
    let open_steal = std::mem::replace(&mut g.steal, StealMeter::new(SAT_WINDOW));

    // The memory high-water mark after a fixed number of jobs: phase 2
    // runs as many jobs as the host's speed allows, and each cold one
    // grows the expansion cache.  The per-layer prep counts cover the
    // same jobs.
    let rss_mb = peak_rss_mb();

    // Phase 2: saturation with OUTSTANDING jobs in flight.  The traced
    // run traces every other window, so the overhead compares windows
    // from the same stretch of host time.
    let seg_secs = args.seconds as f64 * (1.0 - OPEN_SHARE) / SAT_PLANTS as f64;
    let traced_at = |t: f64| args.trace && (t / SAT_WINDOW) as u64 % 2 == 1;
    for k in 0..SAT_PLANTS {
        if let Err(e) = restart(&mut g, k + 1) {
            g.report.broken.push(format!("setup: {e}"));
            return g.report;
        }
        let start = Instant::now();
        (g.origin, g.base) = (start, k as f64 * seg_secs);
        let end = start + Duration::from_secs_f64(seg_secs);
        for _ in 0..OUTSTANDING {
            g.submit(mix.next(), Instant::now());
        }
        while Instant::now() < end {
            let now = g.since(Instant::now());
            tr.set(traced_at(now));
            g.steal.tick(now);
            if !g.pump_one() {
                break;
            }
            g.submit(mix.next(), Instant::now());
        }
        g.drain();
        g.steal.pause();
        tr.set(args.trace);
        // Jobs observed while draining belong to no window.
        let seg_end = g.base + seg_secs;
        g.done_at.retain(|&(t, _)| t < seg_end);
    }
    g.fold_server();
    let (traced, untraced): (Vec<_>, Vec<_>) = g.done_at.iter().partition(|&&(t, _)| traced_at(t));
    let rates = windows(&untraced, SAT_WINDOW, &g.steal);
    let (makespan_us, decisions) = virtual_pass(&g.plant, args.seed, &mut g.report);

    let mut report = std::mem::take(&mut g.report);
    if args.trace {
        let (layers, tag) = (&mut g.layers, MACHINE.tag());
        layers.set(format!("vtime.makespan_us.{tag}"), makespan_us);
        layers.set("vtime.decisions", decisions as f64);
        let traced = windows(&traced, SAT_WINDOW, &g.steal);
        let overhead = median(&rates.rates) / median(&traced.rates) - 1.0;
        layers.set("trace.overhead_pct", overhead * 100.0);
        crate::finish_trace(args, &tr, layers, &mut report);
    } else {
        let w = windows(&g.latency, OPEN_WINDOW, &open_steal);
        report.end_to_end(
            &setup_times,
            &rates.rates,
            &rates.steal,
            &w,
            g.latency.len(),
            makespan_us,
            rss_mb,
        );
    }
    report
}

/// Each served program — the native small job, a warm source, a fresh
/// cold source — run twice on the Encore sessions under the virtual-time
/// scheduler with the same seed; the runs must agree.  Returns the summed
/// virtual makespan in µs and the scheduling decisions taken.
fn virtual_pass(plant: &Plant, seed: u64, report: &mut Report) -> (f64, u64) {
    let opts = RunOptions {
        backend: ParkBackend::Virtual { seed },
        ..RunOptions::default()
    };
    let native = || {
        let acc = AtomicU64::new(0);
        let ran = plant
            .force
            .try_execute_with(opts, |p| small_body(p, seed, &acc, true))
            .is_ok();
        let ok = ran && acc.into_inner() == small_expected(seed, NPROC);
        (
            ok,
            plant.force.last_virtual_summary(),
            plant.force.last_job_stats(),
        )
    };
    let lang = |engine: &Engine, expected: i64| match engine.run_with(NPROC, opts) {
        Ok(out) => (
            crate::scalar(&out, "TOTAL") == Some(expected),
            engine.fault_plane(NPROC).virtual_summary(),
            Some(out.stats),
        ),
        Err(_) => (false, None, None),
    };
    // Above every cold job's multiplier, so this source is fresh too.
    // Each of the pair loads its own engine: a cold run is a first run.
    let cold_c = 2_000_000_000 + (seed % 1_000) as i64;
    let cold = || match crate::load(
        &served_source(cold_c),
        &plant.machine,
        &Tracer::new(false),
        0,
        0,
    ) {
        Ok((_, e)) => lang(&e, served_expected(cold_c)),
        Err(_) => (false, None, None),
    };
    let w = &plant.warm[0];
    let runs = [
        (native(), native()),
        (lang(&w.engine, w.expected), lang(&w.engine, w.expected)),
        (cold(), cold()),
    ];
    let (mut ns, mut decisions) = (0, 0);
    for (a, b) in runs {
        if a != b {
            report
                .broken
                .push(format!("virtual replay diverged: {a:?} vs {b:?}"));
        }
        match a {
            (true, Some(v), Some(_)) => {
                ns += v.makespan_ns;
                decisions += v.decisions;
            }
            _ => report.broken.push("virtual run failed".into()),
        }
    }
    (ns as f64 / 1e3, decisions)
}
