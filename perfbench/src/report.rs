//! Turning a run's records into named metrics, the result stamp, and the
//! output lines.

use std::path::Path;

use tthr::server::json::Json;
use tthr::server::ServerConfig;
use tthr::service::ServiceConfig;

use crate::deploy::Phases;
use crate::trace::summarize;
use crate::world::{self, World};
use crate::{Args, Run, Traced, Workload};

/// Median of the values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile, `q` in `(0, 1]` (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Named metrics in report order; `layer` marks the per-layer ones.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str, bool)>);

impl Metrics {
    fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit, false));
    }

    fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit, true));
    }

    fn json(&self, layer: Option<bool>) -> Json {
        Json::Obj(
            self.0
                .iter()
                .filter(|m| layer.is_none_or(|l| m.3 == l))
                .map(|&(name, value, unit, _)| {
                    (
                        name.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(value)),
                            ("unit".into(), Json::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Consecutive appends per window of `append_p99_us`.
const APPEND_WINDOW: usize = 20;

/// The end-to-end metrics of the measured phase, and the append latency
/// of every run.
pub fn end_to_end(run: &Run, m: &mut Metrics) {
    let setup: Vec<f64> = run.phases.iter().map(Phases::total).collect();
    // The read metrics are taken on each deployment's segment and the
    // median over the segments reported, so neither one deployment's
    // placement nor a burst of descheduling during one segment (common on
    // a shared 2-vCPU box) sets them.
    let stats = segment_stats(run);
    let over_segments =
        |value: fn(&SegmentStats) -> f64| median(&stats.iter().map(value).collect::<Vec<_>>());
    m.e2e("setup_s", median(&setup), "s");
    m.e2e("query_p50_us", over_segments(|s| s.p50_us), "us");
    m.e2e("query_p99_us", over_segments(|s| s.p99_us), "us");
    m.e2e("query_rps", over_segments(|s| s.rps), "1/s");
    m.e2e("trip_smape_pct", run.smape, "%");
    m.e2e(
        "index_bytes_per_traversal",
        ratio(run.memory.bytes, run.memory.traversals),
        "bytes",
    );

    // Append latency is measured on every run but carries no bound: on a
    // 2-vCPU box it varied by 30-50% between runs (see the README).
    // A run sends 100-200 batches, too few for a whole-run 99th
    // percentile to have ten samples beyond it: it would be the single
    // slowest batch, set by one fsync or scheduler hiccup. The p99 is
    // taken in each window of 20 consecutive batches (so it is the
    // window's slowest) and the median over the windows reported.
    let appends: Vec<f64> = run.appends.iter().map(|a| us(a.latency_ns)).collect();
    let windows: Vec<f64> = appends
        .chunks(APPEND_WINDOW)
        .map(|window| percentile(window, 0.99))
        .collect();
    m.layer("append_p50_us", percentile(&appends, 0.50), "us");
    m.layer("append_p99_us", median(&windows), "us");
}

/// One deployment's read figures.
struct SegmentStats {
    p50_us: f64,
    p99_us: f64,
    rps: f64,
}

fn segment_stats(run: &Run) -> Vec<SegmentStats> {
    run.segments
        .iter()
        .map(|s| {
            let latencies: Vec<f64> = s.reads.iter().map(|r| us(r.latency_ns)).collect();
            let answered = s.reads.iter().filter(|r| r.status == 200).count();
            SegmentStats {
                p50_us: percentile(&latencies, 0.50),
                p99_us: percentile(&latencies, 0.99),
                rps: answered as f64 / s.secs,
            }
        })
        .collect()
}

/// The per-layer metrics of a traced run. Counter metrics are deltas of
/// the last deployment's `/metrics` over its measured reads (read
/// counters) or up to the end of the appends (write counters); the rest
/// come from the traced replay's spans and counts.
pub fn per_layer(run: &Run, traced: &Traced, workload: Workload, m: &mut Metrics) {
    let spans = summarize(&traced.spans);
    let requests = traced.counts.requests.max(1) as f64;
    let mean = |name: &str| spans.get(name).map_or(0.0, |s| s.mean_us);
    let per_request =
        |name: &str| spans.get(name).map_or(0.0, |s| s.mean_us * s.count as f64) / requests;
    let self_per_request =
        |name: &str| spans.get(name).map_or(0.0, |s| s.self_us * s.count as f64) / requests;
    let cluster = workload == Workload::ClusterTrip;
    let (a, b, post) = (&run.before, &run.after, &run.post);
    let read = |series: &str| b.delta(a, series);
    let write = |series: &str| post.delta(a, series);
    let c = &traced.counts;
    let trips = c.trips.max(1) as f64;
    let wire = per_request("server.wire_decode") + per_request("server.wire_encode");

    let mem = &run.memory;

    // server
    let server_self = if cluster {
        0.0
    } else {
        self_per_request("server.http") + wire
    };
    m.layer("server.self_us", server_self, "us");
    m.layer("server.wire_us", wire, "us");
    m.layer(
        "server.bytes_per_response",
        ratio(
            read("tthr_server_bytes_written_total"),
            read("tthr_server_requests_total"),
        ),
        "bytes",
    );
    m.layer("server.shed_total", read("tthr_server_shed_total"), "count");
    m.layer(
        "server.client_errors_total",
        read("tthr_server_client_errors_total"),
        "count",
    );

    // service
    m.layer("service.self_us", self_per_request("service.call"), "us");
    m.layer("service.cache_hit_ratio", shares(run)[0], "ratio");
    m.layer(
        "service.cache_invalidations",
        write("tthr_cache_invalidations_total"),
        "count",
    );
    m.layer(
        "service.appends_per_fsync",
        ratio(
            write("tthr_wal_appends_total"),
            write("tthr_wal_fsyncs_total"),
        ),
        "ratio",
    );
    m.layer(
        "service.append_us",
        ratio(
            write("tthr_request_duration_ns_sum{endpoint=\"append\"}"),
            write("tthr_request_duration_ns_count{endpoint=\"append\"}"),
        ) / 1e3,
        "us",
    );

    // core
    m.layer("core.partition_us", per_request("core.partition"), "us");
    m.layer("core.chains_us", per_request("core.chains"), "us");
    m.layer("core.assemble_us", mean("core.assemble"), "us");
    m.layer("core.spq_us", mean("core.spq"), "us");
    m.layer(
        "core.index_queries_per_trip",
        c.index_queries as f64 / trips,
        "count",
    );
    m.layer(
        "core.widenings_per_trip",
        c.widenings as f64 / trips,
        "count",
    );
    m.layer(
        "core.path_splits_per_trip",
        c.path_splits as f64 / trips,
        "count",
    );
    m.layer(
        "core.estimator_rejections_per_trip",
        c.estimator_rejections as f64 / trips,
        "count",
    );
    let (searched, index_queries) = if cluster {
        (c.partitions_searched as f64, c.engine_index_queries as f64)
    } else {
        (
            read("tthr_partitions_searched_total"),
            read("tthr_index_queries_total"),
        )
    };
    m.layer(
        "core.partitions_searched_per_query",
        ratio(searched, index_queries),
        "count",
    );
    m.layer("core.partitions_at_end", mem.partitions, "count");

    // fmindex
    let served = read("tthr_requests_total{endpoint=\"trip\"}");
    let (rank_ops, nodes, s_hits, s_misses, per) = if cluster {
        (
            c.rank_ops as f64,
            c.wavelet_nodes as f64,
            c.scratch_hits as f64,
            c.scratch_misses as f64,
            trips,
        )
    } else {
        (
            read("tthr_rank_ops_total"),
            read("tthr_wavelet_nodes_total"),
            read("tthr_scratch_hits_total"),
            read("tthr_scratch_misses_total"),
            served,
        )
    };
    m.layer("fmindex.isa_ranges_us", mean("fmindex.isa_ranges"), "us");
    m.layer(
        "fmindex.rank_ops_per_request",
        ratio(rank_ops, per),
        "count",
    );
    m.layer(
        "fmindex.wavelet_nodes_per_rank",
        ratio(nodes, rank_ops),
        "count",
    );
    m.layer(
        "fmindex.scratch_hit_ratio",
        ratio(s_hits, s_hits + s_misses),
        "ratio",
    );
    m.layer(
        "fmindex.bits_per_symbol",
        ratio(mem.wavelet_bytes * 8.0, mem.traversals + mem.trajectories),
        "bits",
    );

    // temporal
    m.layer(
        "temporal.scan_us",
        mean("core.spq") - mean("fmindex.isa_ranges"),
        "us",
    );
    m.layer(
        "temporal.forest_bytes_per_traversal",
        ratio(mem.forest_bytes, mem.traversals),
        "bytes",
    );

    // store
    let fsync = |q| post.histogram_quantile(a, "tthr_wal_fsync_duration_ns", q) / 1e3;
    let acked = run.appends.iter().filter(|x| x.acked).count() as f64;
    m.layer("store.wal_fsync_us_p50", fsync(0.5), "us");
    m.layer("store.wal_fsync_us_p99", fsync(0.99), "us");
    m.layer(
        "store.wal_bytes_per_traj",
        ratio(
            write("tthr_wal_bytes_total"),
            acked * world::BATCH_TRAJS as f64,
        ),
        "bytes",
    );
    m.layer(
        "store.snapshot_ms",
        ratio(
            post.get("tthr_snapshot_duration_ns_sum"),
            post.get("tthr_snapshot_duration_ns_count"),
        ) / 1e6,
        "ms",
    );

    // client / rpc
    let client_self = if cluster {
        self_per_request("client.http") + wire
    } else {
        0.0
    };
    m.layer("client.self_us", client_self, "us");
    let hop = if cluster {
        mean("rpc.request") - mean("core.spq")
    } else {
        0.0
    };
    m.layer("rpc.hop_us", hop, "us");
    m.layer(
        "client.rpc_per_trip",
        if cluster {
            c.spq_calls as f64 / trips
        } else {
            0.0
        },
        "count",
    );
    m.layer("client.retries", traced.retries as f64, "count");
    m.layer("client.connects", traced.connects as f64, "count");

    // setup and load generator
    let phase = |f: fn(&Phases) -> f64| {
        let v: Vec<f64> = run.phases.iter().map(f).collect();
        median(&v)
    };
    m.layer("setup.build_s", phase(|p| p.build_s), "s");
    m.layer("setup.snapshot_s", phase(|p| p.snapshot_s), "s");
    m.layer("setup.boot_s", phase(|p| p.boot_s), "s");
    m.layer("setup.warm_s", phase(|p| p.warm_s), "s");
    m.layer(
        "gen.append_late_ms_max",
        run.appends.iter().map(|x| x.late_ns).max().unwrap_or(0) as f64 / 1e6,
        "ms",
    );
    m.layer(
        "gen.trace_overhead_pct",
        (ratio(traced.traced_p50_us, traced.reference_p50_us) - 1.0) * 100.0,
        "%",
    );

    // property shares
    let [_, fallback] = shares(run);
    m.layer("core.fallback_share", fallback, "ratio");
    m.layer(
        "failed_frac",
        ratio(run.failed as f64, run.attempted as f64),
        "ratio",
    );
}

/// The workload's property shares: result-cache hits among lookups over
/// the last deployment's measured reads; trip sub-results that fell back to the speed-limit
/// estimate.
fn shares(run: &Run) -> [f64; 2] {
    let hits = run.after.delta(&run.before, "tthr_cache_hits_total");
    let misses = run.after.delta(&run.before, "tthr_cache_misses_total");
    [
        ratio(hits, hits + misses),
        ratio(run.fallback_subs as f64, run.subs as f64),
    ]
}

/// The commit, when run from a git checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over every source file's path and bytes: identifies the code
/// measured even where the checkout carries no git metadata.
fn source_hash() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') || name == "target" {
                continue;
            }
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "src",
        "crates",
        "shims",
        "perfbench",
    ] {
        let root = Path::new(root);
        if root.is_dir() {
            walk(root, &mut files);
        } else if root.exists() {
            files.push(root.to_path_buf());
        }
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    format!("{:016x}", crate::load::fingerprint(&bytes))
}

/// What was measured, on what, with which settings.
pub fn stamp(args: &Args, workload: Workload, clients: usize, world: &World) -> Json {
    let service = ServiceConfig::default();
    let server = ServerConfig::default();
    let s = |v: String| Json::Str(v);
    let i = |v: u64| Json::Int(v as i64);
    Json::Obj(vec![
        ("commit".into(), s(git_commit())),
        ("source_fnv64".into(), s(source_hash())),
        (
            "nproc".into(),
            i(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        ("clients".into(), i(clients as u64)),
        ("scale".into(), s(world::SCALE.into())),
        ("seed".into(), i(args.seed)),
        ("workload".into(), s(workload.name().into())),
        ("seconds".into(), i(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("trajectories".into(), i(world.base.len() as u64)),
        ("traversals".into(), i(world.base.total_traversals() as u64)),
        ("distinct_trips".into(), i(world.trips.len() as u64)),
        (
            "server_config".into(),
            s(match workload {
                Workload::ClusterTrip => format!(
                    "tthr-router --preset {} over {} tthr-node processes",
                    world::SCALE,
                    crate::deploy::CLUSTER_SHARDS
                ),
                _ => format!("{server:?}"),
            }),
        ),
        (
            "service_config".into(),
            s(format!(
                "num_threads={} cache_shards={} cache_capacity={} trace_timing={} engine={:?}",
                service.num_threads,
                service.cache_shards,
                service.cache_capacity,
                service.trace_timing,
                service.engine
            )),
        ),
        ("ingest_config".into(), s(format!("{:?}", service.ingest))),
        (
            "storage".into(),
            s(match workload {
                Workload::ClusterTrip => "per-node snapshot + fsynced WAL",
                Workload::TripCold => "snapshot + fsynced WAL",
            }
            .into()),
        ),
        (
            "feed".into(),
            s(format!(
                "batch={} trajectories, probe={} batches at {}/s",
                world::BATCH_TRAJS,
                crate::PROBE_BATCHES,
                crate::PROBE_RATE
            )),
        ),
        ("setup_reps".into(), i(crate::SETUP_REPS as u64)),
    ])
}

/// The full record: stamp, every metric, the property shares, and sample
/// counts.
pub fn record(stamp: &Json, run: &Run, metrics: &Metrics) -> String {
    let [cache_hit, fallback] = shares(run);
    Json::Obj(vec![
        ("stamp".into(), stamp.clone()),
        ("correct".into(), Json::Bool(run.failed == 0)),
        ("attempted".into(), Json::Int(run.attempted as i64)),
        ("failed".into(), Json::Int(run.failed as i64)),
        (
            "reads".into(),
            Json::Int(run.segments.iter().map(|s| s.reads.len()).sum::<usize>() as i64),
        ),
        (
            "segments".into(),
            Json::Arr(
                segment_stats(run)
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("p50_us".into(), Json::Num(s.p50_us)),
                            ("p99_us".into(), Json::Num(s.p99_us)),
                            ("rps".into(), Json::Num(s.rps)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("appends".into(), Json::Int(run.appends.len() as i64)),
        (
            "append_us".into(),
            Json::Arr(
                run.appends
                    .iter()
                    .map(|a| Json::Num(us(a.latency_ns)))
                    .collect(),
            ),
        ),
        ("metrics".into(), metrics.json(None)),
        (
            "shares".into(),
            Json::Obj(vec![
                ("cache_hit".into(), Json::Num(cache_hit)),
                ("estimate_fallback".into(), Json::Num(fallback)),
            ]),
        ),
    ])
    .encode()
}

/// The last output line.
pub fn result_line(run: &Run, metrics: &Metrics, trace: bool) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(run.failed == 0)),
        ("attempted".into(), Json::Int(run.attempted as i64)),
        ("failed".into(), Json::Int(run.failed as i64)),
        ("metrics".into(), metrics.json(Some(trace))),
    ])
    .encode()
}
