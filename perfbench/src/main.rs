//! `perfbench` — the repository benchmark. One invocation runs one
//! workload against a real deployment over loopback HTTP and prints its
//! metrics; see `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench serve --seed <n> --dir <path>   (internal)
//! ```

mod deploy;
mod http;
mod load;
mod report;
mod trace;
mod world;

use std::cell::RefCell;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tthr::client::{ClientConfig, ClusterRouter};
use tthr::core::{IndexBackend, QueryEngine, ShardedSntIndex, SntConfig, SntIndex};
use tthr::server::wire;
use tthr::service::{QueryService, ServiceConfig};
use tthr::trajectory::TrajectorySet;

use deploy::{Deployment, Memory, Phases};
use http::{Conn, Scrape};
use load::{fingerprint, AppendRecord, ReadRecord};
use report::{median, Metrics};
use world::World;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TripCold,
    ClusterTrip,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::TripCold, Workload::ClusterTrip];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TripCold => "trip_cold",
            Workload::ClusterTrip => "cluster_trip",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Set-ups per run; `setup_s` is their median. Each deployment serves an
/// equal share of the measured reads.
const SETUP_REPS: usize = 5;
/// Trip requests sent (from the stream's tail) to warm a deployment.
const WARM_TRIPS: usize = 50;
/// Append probe after the reads: a few untimed batches first (the first
/// appends after the reads evict the full result cache), then the timed
/// ones.
const PROBE_WARM: usize = 4;
const PROBE_BATCHES: usize = 200;
const PROBE_RATE: f64 = 50.0;
/// Leading trip-stream requests `trip_smape_pct` is computed over.
const SMAPE_QUERIES: usize = 4000;
/// Requests re-checked against the grown oracle after the appends.
const POST_CHECK: usize = 100;
/// Traced run: untraced reference phase and traced replay phase.
const TRACE_REFERENCE: Duration = Duration::from_secs(2);
const TRACE_REPLAY: Duration = Duration::from_secs(3);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        let mut get = |flag: &str| -> String {
            let f = args.next().unwrap_or_default();
            assert_eq!(f, flag, "serve: expected {flag}");
            args.next().unwrap_or_default()
        };
        let seed = get("--seed").parse().expect("serve: seed");
        let dir = PathBuf::from(get("--dir"));
        if let Err(e) = deploy::serve_main(seed, &dir) {
            eprintln!("perfbench serve: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <trip_cold|cluster_trip> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Calls `apply` with the base history grown by each of the first
/// `batches` feed batches in turn: one append per batch, as the
/// deployment applied them.
fn grow(world: &World, batches: usize, mut apply: impl FnMut(&TrajectorySet)) {
    let mut set = world.base.clone();
    for batch in &world.feed[..batches] {
        for (user, entries) in batch {
            set.push(*user, entries.clone()).expect("valid feed");
        }
        apply(&set);
    }
}

/// The in-process oracle: the same history indexed in this process.
enum Oracle {
    Mono(Box<SntIndex>),
    Sharded(Arc<ShardedSntIndex>),
}

impl Oracle {
    /// Applies the first `batches` feed batches.
    fn append(&mut self, world: &World, batches: usize) {
        grow(world, batches, |set| match self {
            Oracle::Mono(index) => {
                index.append_batch(set);
            }
            Oracle::Sharded(index) => {
                index.append_batch(set);
            }
        });
    }

    /// The wire bytes the deployment must answer trip `key` with, and
    /// (predicted duration, fallback subs, subs).
    fn answer(&self, world: &World, key: usize) -> Answer {
        fn trip_answer<B: IndexBackend>(index: &B, world: &World, key: usize) -> Answer {
            let engine = QueryEngine::new(index, &world.network, Default::default());
            let trip = engine.trip_query(&world.trips[key].spq);
            Answer {
                hash: fingerprint(wire::encode_trip(&trip).as_bytes()),
                predicted: trip.predicted_duration(),
                fallback_subs: trip.subs.iter().filter(|s| s.fallback).count() as u64,
                subs: trip.subs.len() as u64,
            }
        }
        match self {
            Oracle::Mono(index) => trip_answer(&**index, world, key),
            Oracle::Sharded(index) => trip_answer(&**index, world, key),
        }
    }

    /// The oracle index's size (a sharded one's summed over shards).
    fn memory(&self) -> Memory {
        match self {
            Oracle::Mono(index) => Memory::of(index),
            Oracle::Sharded(index) => Memory::of_sharded(index),
        }
    }
}

#[derive(Clone, Copy, Default)]
struct Answer {
    hash: u64,
    predicted: f64,
    fallback_subs: u64,
    subs: u64,
}

/// Oracle answers for `keys`, computed on every core.
fn oracle_answers(oracle: &Oracle, world: &World, keys: &[usize]) -> Vec<Answer> {
    let chunk = keys.len().div_ceil(cores()).max(1);
    std::thread::scope(|scope| {
        let parts: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&k| oracle.answer(world, k))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("oracle thread"))
            .collect()
    })
}

/// The measured reads one deployment served.
struct Segment {
    reads: Vec<ReadRecord>,
    secs: f64,
}

/// Everything one run measured, before it is turned into metrics.
struct Run {
    phases: Vec<Phases>,
    segments: Vec<Segment>,
    appends: Vec<AppendRecord>,
    attempted: u64,
    failed: u64,
    before: Scrape,
    after: Scrape,
    post: Scrape,
    fallback_subs: u64,
    subs: u64,
    smape: f64,
    memory: Memory,
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Closed-loop read clients: two, at most one per core.
fn clients() -> usize {
    cores().min(2)
}

/// Sends feed batches `batches` open-loop at `rate` per second (for at
/// most `duration`), each stamped with the history size it extends.
fn send_feed(
    addr: SocketAddr,
    world: &World,
    batches: std::ops::Range<usize>,
    rate: f64,
    duration: Duration,
) -> Vec<AppendRecord> {
    let stamp = world.base.len() + batches.start * world::BATCH_TRAJS;
    load::open_loop_feed(addr, &world.feed[batches], stamp as u64, rate, duration)
}

/// Sends the warm-up trips (the stream's tail); returns how many were
/// sent and how many failed.
fn warm(addr: SocketAddr, world: &World) -> (u64, u64) {
    let mut conn = Conn::new(addr);
    let warmup = &world.trips[world.trips.len() - WARM_TRIPS..];
    let failed = warmup
        .iter()
        .filter(|r| !matches!(conn.post("/trip", r.body.as_bytes()), Ok(r) if r.status == 200))
        .count();
    (warmup.len() as u64, failed as u64)
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let r = Conn::new(addr)
        .get("/metrics")
        .map_err(|e| format!("/metrics: {e}"))?;
    Ok(Scrape::parse(&String::from_utf8_lossy(&r.body)))
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    let duration = Duration::from_secs(args.seconds);
    let threads = clients();
    let world = World::generate(args.seed, PROBE_WARM + PROBE_BATCHES);
    let measured = world.trips.len() - WARM_TRIPS;
    if measured < SMAPE_QUERIES.max(POST_CHECK) {
        return Err(format!("trip stream too short: {}", world.trips.len()));
    }
    let work = PathBuf::from(".bench_work").join(std::process::id().to_string());
    let out_dir = PathBuf::from(".bench_out");

    // --- Set-up several times, each deployment measured in turn. ---------
    // A fresh deployment lands its index at other addresses and its
    // threads on other CPUs; measuring each of them, rather than only the
    // last, keeps one unlucky placement from setting a run's figures.
    // The request stream continues from one deployment to the next.
    let mut phases = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut deployment: Option<Deployment> = None;
    let counter = AtomicU64::new(0);
    let key_of = |i: u64| (i % measured as u64) as usize;
    let segment = duration / SETUP_REPS as u32;
    let mut segments = Vec::new();
    let mut counters = None;
    for rep in 0..SETUP_REPS {
        drop(deployment.take());
        let mut d = Deployment::start(
            workload,
            args.seed,
            &world.base,
            &world.network,
            work.join(format!("rep{rep}")),
        )?;
        let t = Instant::now();
        let (sent, bad) = warm(d.addr, &world);
        d.phases.warm_s = t.elapsed().as_secs_f64();
        attempted += sent;
        failed += bad;
        phases.push(d.phases);

        let before = scrape(d.addr)?;
        let t = Instant::now();
        let reads = load::closed_loop(d.addr, threads, segment, &world.trips, &counter, &key_of);
        segments.push(Segment {
            reads,
            secs: t.elapsed().as_secs_f64(),
        });
        counters = Some((before, scrape(d.addr)?));
        deployment = Some(d);
    }
    let mut dep = deployment.expect("at least one set-up");
    let (before, after) = counters.expect("at least one set-up");
    let next_key = counter.load(Ordering::Relaxed);
    let mut oracle = match &dep.sharded {
        Some(sharded) => Oracle::Sharded(Arc::clone(sharded)),
        None => Oracle::Mono(Box::new(SntIndex::build(
            &world.network,
            &world.base,
            SntConfig::default(),
        ))),
    };

    // --- The traced phases run on the state the reads saw. ---------------
    let traced = match args.trace {
        true => Some(traced_phase(&dep, &world, &oracle, next_key)?),
        false => None,
    };

    // --- The append probe. -----------------------------------------------
    let forever = Duration::from_secs(3600);
    let mut sent = send_feed(dep.addr, &world, 0..PROBE_WARM, PROBE_RATE, forever);
    let appends = send_feed(
        dep.addr,
        &world,
        PROBE_WARM..world.feed.len(),
        PROBE_RATE,
        forever,
    );
    let post = scrape(dep.addr)?;
    sent.extend_from_slice(&appends);
    attempted += sent.len() as u64;
    failed += sent.iter().filter(|a| !a.acked).count() as u64;
    let acked = sent.iter().take_while(|a| a.acked).count();

    // --- Answer checks. --------------------------------------------------
    // Every read is checked against the oracle of the base history.
    let reads = || segments.iter().flat_map(|s| &s.reads);
    attempted += reads().count() as u64;
    let mut keys: Vec<usize> = reads().map(|r| r.key).collect();
    keys.extend(0..SMAPE_QUERIES);
    keys.sort_unstable();
    keys.dedup();
    let answers = oracle_answers(&oracle, &world, &keys);
    let answer_of = |k: usize| answers[keys.binary_search(&k).expect("answered key")];
    let (mut fallback_subs, mut subs) = (0, 0);
    for r in reads() {
        let a = answer_of(r.key);
        failed += u64::from(r.status != 200 || r.hash != a.hash);
        fallback_subs += a.fallback_subs;
        subs += a.subs;
    }
    let smape_pairs: Vec<(f64, f64)> = (0..SMAPE_QUERIES)
        .map(|k| (answer_of(k).predicted, world.trips[k].actual))
        .collect();

    // After the appends the deployment must match the oracle grown by
    // every acknowledged batch.
    oracle.append(&world, acked);
    let sample_keys: Vec<usize> = (0..POST_CHECK).collect();
    let expected = oracle_answers(&oracle, &world, &sample_keys);
    let mut conn = Conn::new(dep.addr);
    for (&k, a) in sample_keys.iter().zip(&expected) {
        attempted += 1;
        let ok = matches!(conn.post("/trip", world.trips[k].body.as_bytes()), Ok(r) if r.status == 200 && fingerprint(&r.body) == a.hash);
        failed += u64::from(!ok);
    }

    // Index size after the run, as the deployment reports it (the
    // cluster's nodes report none; its in-process twin is in the same
    // state, which the check above just confirmed).
    let memory = match dep.memory()? {
        Some(memory) => memory,
        None => oracle.memory(),
    };

    let mut run = Run {
        phases,
        segments,
        appends,
        attempted,
        failed,
        before,
        after,
        post,
        fallback_subs,
        subs,
        smape: tthr::metrics::smape(&smape_pairs),
        memory,
    };

    let mut metrics = Metrics::default();
    report::end_to_end(&run, &mut metrics);
    if let Some(traced) = &traced {
        run.attempted += traced.attempted;
        run.failed += traced.failed;
        report::per_layer(&run, traced, workload, &mut metrics);
        std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
        let spans_path = out_dir.join(format!("{}-seed{}.spans.jsonl", workload.name(), args.seed));
        trace::write_spans(&spans_path, &traced.spans).map_err(|e| e.to_string())?;
    }
    drop(dep);
    let _ = std::fs::remove_dir_all(&work);

    let stamp = report::stamp(args, workload, threads, &world);
    let record = report::record(&stamp, &run, &metrics);
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let record_path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&record_path, format!("{record}\n")).map_err(|e| e.to_string())?;
    println!("perfbench-record {record}");
    println!("{}", report::result_line(&run, &metrics, args.trace));
    Ok(())
}

/// What the traced run adds.
pub struct Traced {
    pub spans: Vec<trace::Span>,
    pub counts: trace::ReplayCounts,
    /// Untraced reference p50 and traced p50, microseconds.
    pub reference_p50_us: f64,
    pub traced_p50_us: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Router transport counters over the replay (cluster).
    pub connects: u64,
    pub retries: u64,
}

/// The traced run's extra phases, on the state the measured reads saw
/// (the base history): re-warm, an untraced reference phase, then the
/// traced replay against an in-process twin of the deployment.
fn traced_phase(
    dep: &Deployment,
    world: &World,
    oracle: &Oracle,
    first_key: u64,
) -> Result<Traced, String> {
    let (mut attempted, mut failed) = warm(dep.addr, world);
    let measured = world.trips.len() - WARM_TRIPS;
    // Both phases on one connection, so the tracing is their only
    // difference; both continue the stream past the measured phase's
    // requests, so no trip repeats one the deployment has cached.
    let key_of = |i: u64| ((i + first_key) % measured as u64) as usize;
    let counter = &AtomicU64::new(0);
    let reference = load::closed_loop(dep.addr, 1, TRACE_REFERENCE, &world.trips, counter, &key_of);
    attempted += reference.len() as u64;
    failed += reference.iter().filter(|r| r.status != 200).count() as u64;
    let reference_ns: Vec<u64> = reference.iter().map(|r| r.latency_ns).collect();

    // The in-process twin.
    let twin_service;
    let twin_router;
    let nodes;
    let stack = match oracle {
        Oracle::Mono(index) => {
            twin_service = QueryService::new(
                SntIndex::build(&world.network, &world.base, SntConfig::default()),
                Arc::clone(&world.network),
                ServiceConfig::default(),
            );
            trace::Stack::Server {
                service: &twin_service,
                index,
            }
        }
        Oracle::Sharded(index) => {
            twin_router = ClusterRouter::connect(
                (*world.network).clone(),
                &dep.nodes,
                Default::default(),
                ClientConfig::default(),
            )
            .map_err(|e| format!("in-process router: {e}"))?;
            nodes = trace::node_clients(&dep.nodes);
            trace::Stack::Cluster {
                router: &twin_router,
                index,
                nodes: &nodes,
            }
        }
    };
    let transport = |stack: &trace::Stack| match stack {
        trace::Stack::Cluster { router, .. } => router
            .node_stats()
            .iter()
            .fold((0, 0), |a, s| (a.0 + s.connects, a.1 + s.retries)),
        trace::Stack::Server { .. } => (0, 0),
    };
    let transport_before = transport(&stack);

    let tracer = RefCell::new(trace::Tracer::new(Instant::now()));
    let mut counts = trace::ReplayCounts::default();
    let mut conn = Conn::new(dep.addr);
    let replay_start = Instant::now();
    while replay_start.elapsed() < TRACE_REPLAY {
        let i = counter.fetch_add(1, Ordering::Relaxed);
        let r = &world.trips[key_of(i)];
        trace::replay_request(
            &stack,
            &world.network,
            &mut conn,
            &tracer,
            &mut counts,
            i,
            &r.spq,
            &r.body,
        );
    }
    let transport_after = transport(&stack);
    let spans = tracer.into_inner().spans;
    attempted += counts.requests;
    failed += counts.http_failed + counts.mismatches;
    Ok(Traced {
        spans,
        reference_p50_us: median_us(&reference_ns),
        traced_p50_us: median_us(&counts.http_ns),
        counts,
        attempted,
        failed,
        connects: transport_after.0 - transport_before.0,
        retries: transport_after.1 - transport_before.1,
    })
}

fn median_us(values: &[u64]) -> f64 {
    let v: Vec<f64> = values.iter().map(|&n| n as f64 / 1e3).collect();
    median(&v)
}
