//! Load generation: closed-loop read clients and the open-loop append
//! feed, each on its own connection.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tthr::server::wire;
use tthr::trajectory::{TrajEntry, UserId};

use crate::http::Conn;
use crate::world::Read;

/// FNV-1a, the fingerprint answers are compared by.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One completed (or failed) read.
#[derive(Clone, Copy)]
pub struct ReadRecord {
    /// Index into the workload's read list.
    pub key: usize,
    /// Send-to-last-byte latency.
    pub latency_ns: u64,
    /// HTTP status (0 on a transport error).
    pub status: u16,
    /// Fingerprint of the body.
    pub hash: u64,
}

/// Runs `threads` closed-loop `/trip` clients for `duration`: each sends
/// request `i` (drawn from a shared counter, so the request sequence does
/// not depend on which client sends it), waits for the answer, and sends
/// the next. `key_of(i)` picks the read from `trips`.
pub fn closed_loop(
    addr: SocketAddr,
    threads: usize,
    duration: Duration,
    trips: &[Read],
    counter: &AtomicU64,
    key_of: &(dyn Fn(u64) -> usize + Sync),
) -> Vec<ReadRecord> {
    let start = Instant::now();
    let per_thread: Vec<Vec<ReadRecord>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut records = Vec::with_capacity(1 << 16);
                    while start.elapsed() < duration {
                        let key = key_of(counter.fetch_add(1, Ordering::Relaxed));
                        let sent = Instant::now();
                        let (status, hash) = match conn.post("/trip", trips[key].body.as_bytes()) {
                            Ok(r) => (r.status, fingerprint(&r.body)),
                            Err(_) => (0, 0),
                        };
                        records.push(ReadRecord {
                            key,
                            latency_ns: sent.elapsed().as_nanos() as u64,
                            status,
                            hash,
                        });
                    }
                    records
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    per_thread.into_iter().flatten().collect()
}

/// One `/append` of the feed.
#[derive(Clone, Copy)]
pub struct AppendRecord {
    /// Latency from when the batch was due to its acknowledgement.
    pub latency_ns: u64,
    /// How late the batch was sent.
    pub late_ns: u64,
    /// Whether the body acknowledged exactly the batch's trajectories.
    pub acked: bool,
}

/// The open-loop feed: batch `k` is due `k / rate` seconds after the
/// start and is timed from then, so a stall also charges the batches
/// queued behind it. Each batch carries its idempotency stamp (the
/// trajectory count it applies to). Stops after `duration` or when the
/// batches run out.
pub fn open_loop_feed(
    addr: SocketAddr,
    batches: &[Vec<(UserId, Vec<TrajEntry>)>],
    first_stamp: u64,
    rate: f64,
    duration: Duration,
) -> Vec<AppendRecord> {
    let bodies: Vec<(String, String)> = batches
        .iter()
        .scan(first_stamp, |stamp, batch| {
            let body = wire::encode_append_request(Some(*stamp), batch);
            *stamp += batch.len() as u64;
            Some((body, wire::encode_appended(batch.len())))
        })
        .collect();
    let mut conn = Conn::new(addr);
    let start = Instant::now();
    let mut records = Vec::with_capacity(bodies.len());
    for (k, (body, ack)) in bodies.iter().enumerate() {
        let due = Duration::from_secs_f64(k as f64 / rate);
        if due >= duration {
            break;
        }
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let late = start.elapsed().saturating_sub(due);
        let acked = matches!(conn.post("/append", body.as_bytes()),
            Ok(r) if r.status == 200 && r.body == ack.as_bytes());
        records.push(AppendRecord {
            latency_ns: start.elapsed().saturating_sub(due).as_nanos() as u64,
            late_ns: late.as_nanos() as u64,
            acked,
        });
    }
    records
}
