//! The benchmark's inputs, all derived from `--seed`: the medium synthetic
//! world, the read streams of each workload, and the time-forward append
//! feed.

use std::sync::Arc;

use tthr::core::Spq;
use tthr::datagen::{
    generate_network, generate_workload, sample_query_trajectories, NetworkConfig,
    SyntheticNetwork, WorkloadConfig,
};
use tthr::network::RoadNetwork;
use tthr::server::wire;
use tthr::trajectory::{TrajEntry, TrajId, TrajectorySet, UserId};
use tthr_bench::{query_for, QueryType};

/// The datagen preset every workload uses (the router regenerates the
/// network from the same preset name).
pub const SCALE: &str = "medium";
/// Cardinality requirement β of every query (the engine's π_Z σ_R β=20
/// default setting).
pub const BETA: u32 = 20;
/// Smallest periodic window α_min of the Section-5.2 queries, seconds.
pub const ALPHA_MIN: i64 = 900;
/// Trajectories per `/append` batch.
pub const BATCH_TRAJS: usize = 64;
/// Minimum segments of a trip query's source trajectory.
pub const MIN_TRIP_SEGMENTS: usize = 15;
/// Traversals the base history is cut to. The medium preset's history
/// holds 1.6 to 2.1 M traversals depending on the seed (its drivers'
/// commute lengths are drawn at random), and set-up time and index size
/// follow it; a fixed budget keeps those figures about the code rather
/// than the seed.
pub const BASE_TRAVERSALS: usize = 1_500_000;

/// SplitMix64: a tiny deterministic generator, so the inputs depend on
/// nothing but the seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The trajectory-generator seed for a benchmark seed.
fn world_seed(seed: u64) -> u64 {
    Rng::new(seed ^ 0x7474_6872).next_u64()
}

/// The road network of the preset (independent of the seed).
fn synthetic_network() -> SyntheticNetwork {
    generate_network(&NetworkConfig::medium())
}

/// The road network and the base trajectory history the deployment
/// indexes: the generated history's leading trajectories (the generator
/// emits them day by day), up to [`BASE_TRAVERSALS`].
pub fn base_history(seed: u64) -> (RoadNetwork, TrajectorySet) {
    let syn = synthetic_network();
    let generated = generate_workload(
        &syn,
        &WorkloadConfig {
            seed: world_seed(seed),
            ..WorkloadConfig::medium()
        },
    );
    let mut set = TrajectorySet::new();
    for t in generated.iter() {
        if set.total_traversals() + t.len() > BASE_TRAVERSALS {
            break;
        }
        set.push(t.user(), t.entries().to_vec())
            .expect("generated trajectory");
    }
    (syn.network, set)
}

/// One read request of a workload stream.
#[derive(Clone)]
pub struct Read {
    pub spq: Spq,
    /// The request body (`wire::encode_spq`).
    pub body: String,
    /// The source trajectory's actual duration over the query path
    /// (the sMAPE ground truth).
    pub actual: f64,
}

/// Everything a run needs, generated from the seed.
pub struct World {
    pub network: Arc<RoadNetwork>,
    pub base: TrajectorySet,
    /// `/trip` stream: distinct Section-5.2 trip queries in seeded order.
    pub trips: Vec<Read>,
    /// Time-forward append batches, in send order.
    pub feed: Vec<Vec<(UserId, Vec<TrajEntry>)>>,
}

impl World {
    pub fn generate(seed: u64, feed_batches: usize) -> World {
        let (network, base) = base_history(seed);
        let trips = trip_stream(&base, seed);
        let feed = append_feed(&base, seed, feed_batches);
        World {
            network: Arc::new(network),
            base,
            trips,
            feed,
        }
    }
}

/// Distinct trip queries: every held-out (post-median, ≥ 15 segment)
/// trajectory under each of the three Section-5.2 query kinds, shuffled
/// so the kinds arrive in equal shares.
fn trip_stream(base: &TrajectorySet, seed: u64) -> Vec<Read> {
    let ids = sample_query_trajectories(base, 1.0, MIN_TRIP_SEGMENTS, seed);
    let kinds = [
        QueryType::TemporalFilters,
        QueryType::UserFilters,
        QueryType::SpqOnly,
    ];
    let mut pairs: Vec<(TrajId, QueryType)> = ids
        .iter()
        .flat_map(|&id| kinds.iter().map(move |&k| (id, k)))
        .collect();
    Rng::new(seed ^ 0x7472_6970).shuffle(&mut pairs);
    pairs
        .into_iter()
        .map(|(id, kind)| {
            let spq = query_for(base, id, kind, ALPHA_MIN, BETA);
            Read {
                body: wire::encode_spq(&spq),
                actual: base.get(id).total_duration(),
                spq,
            }
        })
        .collect()
}

/// `batches` append batches of [`BATCH_TRAJS`] trajectories, all later
/// than every base entry and in start-time order: a second generated
/// history, shifted forward past the base's last day.
fn append_feed(
    base: &TrajectorySet,
    seed: u64,
    batches: usize,
) -> Vec<Vec<(UserId, Vec<TrajEntry>)>> {
    if batches == 0 {
        return Vec::new();
    }
    let last = base
        .iter()
        .flat_map(|tr| tr.entries().last())
        .map(|e| e.enter_time)
        .max()
        .unwrap_or(0);
    let shift = (last / 86_400 + 2) * 86_400;
    let medium = WorkloadConfig::medium();
    // About 220 trajectories a day at the medium preset's driver count.
    let days = (batches * BATCH_TRAJS / 150 + 2) as u32;
    let extra = generate_workload(
        &synthetic_network(),
        &WorkloadConfig {
            seed: world_seed(seed) ^ 0x6665_6564,
            num_days: days,
            ..medium
        },
    );
    let mut trajs: Vec<(i64, UserId, Vec<TrajEntry>)> = extra
        .iter()
        .map(|tr| {
            let entries: Vec<TrajEntry> = tr
                .entries()
                .iter()
                .map(|e| TrajEntry::new(e.edge, e.enter_time + shift, e.travel_time))
                .collect();
            (entries[0].enter_time, tr.user(), entries)
        })
        .collect();
    trajs.sort_by_key(|t| t.0);
    assert!(
        trajs.len() >= batches * BATCH_TRAJS,
        "append feed too short: {} trajectories for {batches} batches",
        trajs.len()
    );
    trajs
        .chunks(BATCH_TRAJS)
        .take(batches)
        .map(|chunk| chunk.iter().map(|(_, u, e)| (*u, e.clone())).collect())
        .collect()
}
