//! The traced replay: each sampled request is sent over HTTP, then
//! replayed in process down the crate stack — `QueryService` (or the
//! in-process `ClusterRouter`), `QueryEngine` phase by phase, and each
//! SPQ split into its FM backward search and its temporal scan. Spans are
//! recorded in memory around those public calls and written out at the
//! end; each layer's self time is computed from them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use tthr::client::{ClientConfig, ClusterRouter, NodeClient};
use tthr::core::{
    ChainOutcome, IndexBackend, QueryEngine, SearchScratch, ShardedSntIndex, SntIndex, Spq,
    TravelTimeProvider, TravelTimes, TripQuery,
};
use tthr::network::{Path, RoadNetwork};
use tthr::rpc::Message;
use tthr::server::{json, wire};
use tthr::service::QueryService;

use crate::http::Conn;
use crate::load::fingerprint;

/// One recorded span. Spans of one request share `req`; `parent` is the
/// span (of the same request) that caused this one. The replays run
/// back to back, so a parent in another layer is the same request one
/// layer up, and a span's self time is its duration minus its
/// children's.
#[derive(Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder for one replay thread.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: Option<u32>) -> usize {
        let slot = self.spans.len();
        self.spans.push(Span {
            id: slot as u32,
            parent,
            req: self.req,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        self.stack.push(slot);
        self.spans[slot].start_ns = self.now();
        slot
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().map(|&s| self.spans[s].id);
        self.push(name, parent)
    }

    /// Opens a span with no parent.
    pub fn open_root(&mut self, name: &'static str) -> usize {
        self.push(name, None)
    }

    pub fn close(&mut self, slot: usize) {
        self.spans[slot].end_ns = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(slot), "spans close innermost first");
    }

    pub fn begin_request(&mut self, req: u64) {
        self.req = req;
        self.stack.clear();
    }
}

fn timed<R>(tracer: &RefCell<Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    timed_slot(tracer, name, f).0
}

/// [`timed`], also returning the span's slot.
fn timed_slot<R>(
    tracer: &RefCell<Tracer>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, usize) {
    let slot = tracer.borrow_mut().open(name);
    let out = f();
    tracer.borrow_mut().close(slot);
    (out, slot)
}

/// The index operations the replay splits an SPQ into.
pub trait Traceable: IndexBackend {
    /// FM backward search of the SPQ's path through `scratch`.
    fn isa_ranges(&self, path: &Path, scratch: &mut SearchScratch);
    /// The shard owning the SPQ (sharded indexes only).
    fn shard_of(&self, spq: &Spq) -> Option<usize>;
}

impl Traceable for SntIndex {
    fn isa_ranges(&self, path: &Path, scratch: &mut SearchScratch) {
        self.isa_ranges_with(path, scratch);
    }

    fn shard_of(&self, _: &Spq) -> Option<usize> {
        None
    }
}

impl Traceable for ShardedSntIndex {
    fn isa_ranges(&self, path: &Path, scratch: &mut SearchScratch) {
        let shard = self.router().shard_of(path.first());
        self.with_shard(shard, |index| {
            index.isa_ranges_with(path, scratch);
        });
    }

    fn shard_of(&self, spq: &Spq) -> Option<usize> {
        Some(self.router().shard_of(spq.path.first()))
    }
}

/// A travel-time provider that splits every SPQ into spans: `core.spq`
/// around the whole call, and inside it `fmindex.isa_ranges` (the
/// backward search, run first through the engine's own scratch) and
/// `temporal.scan` (`get_travel_times` through the same scratch, whose
/// search is then a suffix-cache hit, so what remains is the temporal
/// scan). On the cluster each SPQ is also sent to its owning node
/// (`rpc.request`, a root span) and the node's answer checked.
struct TracedIndex<'a, B> {
    index: &'a B,
    tracer: &'a RefCell<Tracer>,
    nodes: &'a [NodeClient],
    rpc_mismatches: RefCell<u64>,
    calls: RefCell<u64>,
}

impl<B: Traceable> TravelTimeProvider for TracedIndex<'_, B> {
    fn travel_times(&self, spq: &Spq) -> TravelTimes {
        self.travel_times_with(spq, &mut SearchScratch::new())
    }

    fn travel_times_with(&self, spq: &Spq, scratch: &mut SearchScratch) -> TravelTimes {
        *self.calls.borrow_mut() += 1;
        let answer = timed(self.tracer, "core.spq", || {
            timed(self.tracer, "fmindex.isa_ranges", || {
                self.index.isa_ranges(&spq.path, scratch)
            });
            timed(self.tracer, "temporal.scan", || {
                self.index.travel_times_with(spq, scratch)
            })
        });
        if let Some(shard) = self.index.shard_of(spq) {
            let slot = self.tracer.borrow_mut().open_root("rpc.request");
            let reply = self.nodes[shard].request(&Message::TravelTimes(spq.clone()));
            self.tracer.borrow_mut().close(slot);
            let same = matches!(reply, Ok(Message::TravelTimesResult { ref values, fallback })
                if values.as_slice() == answer.values.as_slice() && fallback == answer.fallback);
            if !same {
                *self.rpc_mismatches.borrow_mut() += 1;
            }
        }
        answer
    }
}

/// What one engine replay observed.
pub struct EngineReplay {
    pub trip: TripQuery,
    /// SPQ dispatches the engine made (one RPC each on the cluster).
    pub spq_calls: u64,
    /// Node answers that differed from the in-process shard's.
    pub rpc_mismatches: u64,
}

/// Replays a trip query phase by phase: `core.partition`
/// (`initial_subqueries`), then — when the chains are independent —
/// one `core.chains` span per `run_chain_via` and `core.assemble`;
/// periodic queries under shift-and-enlarge run their chains in sequence
/// inside one `core.chains` span (`trip_query_via`, which includes its
/// own partitioning and assembly).
pub fn replay_engine<B: Traceable>(
    index: &B,
    network: &RoadNetwork,
    nodes: &[NodeClient],
    tracer: &RefCell<Tracer>,
    spq: &Spq,
) -> EngineReplay {
    let engine = QueryEngine::new(index, network, Default::default());
    let provider = TracedIndex {
        index,
        tracer,
        nodes,
        rpc_mismatches: RefCell::new(0),
        calls: RefCell::new(0),
    };
    let trip = timed(tracer, "core.trip", || {
        let initial = timed(tracer, "core.partition", || engine.initial_subqueries(spq));
        if engine.chains_are_independent(spq) {
            let chains: Vec<ChainOutcome> = initial
                .into_iter()
                .map(|sub| {
                    timed(tracer, "core.chains", || {
                        engine.run_chain_via(&provider, sub)
                    })
                })
                .collect();
            timed(tracer, "core.assemble", || engine.assemble(chains))
        } else {
            timed(tracer, "core.chains", || {
                engine.trip_query_via(&provider, spq)
            })
        }
    });
    EngineReplay {
        trip,
        spq_calls: provider.calls.into_inner(),
        rpc_mismatches: provider.rpc_mismatches.into_inner(),
    }
}

/// The in-process twin of the deployment a replay walks down.
pub enum Stack<'a> {
    /// Single-process server: a `QueryService` over the same history, and
    /// the oracle index for the engine replay.
    Server {
        service: &'a QueryService,
        index: &'a SntIndex,
    },
    /// Cluster: an in-process router connected to the same nodes, the
    /// bootstrap's sharded index, and one client per node.
    Cluster {
        router: &'a ClusterRouter,
        index: &'a ShardedSntIndex,
        nodes: &'a [NodeClient],
    },
}

pub fn node_clients(addrs: &[std::net::SocketAddr]) -> Vec<NodeClient> {
    addrs
        .iter()
        .map(|&a| NodeClient::new(a, ClientConfig::default()))
        .collect()
}

/// Counts one replayed request contributes.
#[derive(Default, Clone)]
pub struct ReplayCounts {
    pub requests: u64,
    pub http_failed: u64,
    /// Replays whose in-process answer differed from the expected bytes.
    pub mismatches: u64,
    pub trips: u64,
    pub index_queries: u64,
    pub widenings: u64,
    pub path_splits: u64,
    pub estimator_rejections: u64,
    pub partitions_searched: u64,
    pub engine_index_queries: u64,
    pub rank_ops: u64,
    pub wavelet_nodes: u64,
    pub scratch_hits: u64,
    pub scratch_misses: u64,
    pub spq_calls: u64,
    /// HTTP round-trip latencies of the traced requests.
    pub http_ns: Vec<u64>,
}

/// Replays one trip request (`req` numbers it; `spq` is its query,
/// `body` its encoded body). The HTTP
/// answer, the in-process service's (or router's) and the engine
/// replay's must encode to the same bytes.
#[allow(clippy::too_many_arguments)]
pub fn replay_request(
    stack: &Stack,
    network: &RoadNetwork,
    conn: &mut Conn,
    tracer: &RefCell<Tracer>,
    counts: &mut ReplayCounts,
    req: u64,
    spq: &Spq,
    body: &str,
) {
    tracer.borrow_mut().begin_request(req);
    counts.requests += 1;
    let top = match stack {
        Stack::Cluster { .. } => "client.http",
        Stack::Server { .. } => "server.http",
    };
    let sent = Instant::now();
    let root = tracer.borrow_mut().open_root(top);
    let response = conn.post("/trip", body.as_bytes());
    tracer.borrow_mut().close(root);
    counts.http_ns.push(sent.elapsed().as_nanos() as u64);
    let http_answer = match response {
        Ok(r) if r.status == 200 => Some(fingerprint(&r.body)),
        _ => {
            counts.http_failed += 1;
            None
        }
    };

    let decoded = under(tracer, Some(root), || {
        timed(tracer, "server.wire_decode", || {
            json::parse(body.as_bytes())
                .ok()
                .and_then(|v| wire::decode_spq(&v, network.num_edges()).ok())
        })
    });
    if decoded.as_ref() != Some(spq) {
        counts.mismatches += 1;
    }
    let (expected, encoded) = match stack {
        Stack::Server { service, index } => {
            let (served, call) = under(tracer, Some(root), || {
                timed_slot(tracer, "service.call", || service.trip_query(spq))
            });
            let replay = under(tracer, Some(call), || {
                replay_engine(*index, network, &[], tracer, spq)
            });
            count_trip(counts, &replay);
            let encoded = under(tracer, Some(root), || {
                timed(tracer, "server.wire_encode", || wire::encode_trip(&served))
            });
            (wire::encode_trip(&replay.trip), encoded)
        }
        Stack::Cluster {
            router,
            index,
            nodes,
        } => {
            let (served, call) = under(tracer, Some(root), || {
                timed_slot(tracer, "client.router", || router.trip_query(spq))
            });
            let replay = under(tracer, Some(call), || {
                replay_engine(*index, network, nodes, tracer, spq)
            });
            count_trip(counts, &replay);
            counts.mismatches += replay.rpc_mismatches;
            let encoded = match served {
                Ok(trip) => under(tracer, Some(root), || {
                    timed(tracer, "server.wire_encode", || wire::encode_trip(&trip))
                }),
                Err(_) => String::new(),
            };
            (wire::encode_trip(&replay.trip), encoded)
        }
    };
    let expected = fingerprint(expected.as_bytes());
    if fingerprint(encoded.as_bytes()) != expected {
        counts.mismatches += 1;
    }
    if http_answer.is_some_and(|h| h != expected) {
        counts.mismatches += 1;
    }
}

/// Runs `f` with `parent` (a span slot, or none) as the innermost open
/// span, so spans it opens become that span's children.
fn under<R>(tracer: &RefCell<Tracer>, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
    let saved = std::mem::replace(&mut tracer.borrow_mut().stack, parent.into_iter().collect());
    let out = f();
    tracer.borrow_mut().stack = saved;
    out
}

fn count_trip(counts: &mut ReplayCounts, replay: &EngineReplay) {
    let stats = &replay.trip.stats;
    let trace = &replay.trip.trace;
    counts.trips += 1;
    counts.index_queries += stats.index_queries as u64;
    counts.widenings += stats.widenings as u64;
    counts.path_splits += stats.path_splits as u64;
    counts.estimator_rejections += stats.estimator_rejections as u64;
    counts.partitions_searched += trace.partitions_searched;
    counts.engine_index_queries += trace.index_queries;
    counts.rank_ops += trace.rank_ops;
    counts.wavelet_nodes += trace.wavelet_nodes;
    counts.scratch_hits += trace.scratch_hits;
    counts.scratch_misses += trace.scratch_misses;
    counts.spq_calls += replay.spq_calls;
}

/// Per span name: number of spans, mean duration and mean self time
/// (duration minus the durations of its children), microseconds.
pub struct SpanSummary {
    pub count: u64,
    pub mean_us: f64,
    pub self_us: f64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanSummary> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut acc: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let own = s.dur_ns() as f64 - child_ns.get(&s.id).copied().unwrap_or(0) as f64;
        let e = acc.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns() as f64;
        e.2 += own;
    }
    acc.into_iter()
        .map(|(name, (n, dur, own))| {
            (
                name,
                SpanSummary {
                    count: n,
                    mean_us: dur / n as f64 / 1e3,
                    self_us: own / n as f64 / 1e3,
                },
            )
        })
        .collect()
}

/// Writes every span as one JSON line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
