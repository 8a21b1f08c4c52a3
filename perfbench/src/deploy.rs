//! Bringing a deployment up and down: the single-process HTTP server (run
//! as a child process of this binary) or a `tthr-router` in front of
//! `tthr-node` processes. Every child exits when its stdin closes, and
//! [`Proc`]'s drop closes it and waits.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tthr::core::{ShardNodeState, ShardedSntIndex, SntConfig, SntIndex};
use tthr::network::RoadNetwork;
use tthr::server::node::NodeStore;
use tthr::server::{serve, ServerConfig};
use tthr::service::{QueryService, ServiceConfig};

use crate::world;
use crate::Workload;

/// Shards of the `cluster_trip` deployment.
pub const CLUSTER_SHARDS: usize = 2;

/// An index's size: its `MemoryReport` total (counts + wavelet + users +
/// forest + ToD), the parts the metrics break out, and what they are
/// divided by.
#[derive(Clone, Copy, Default)]
pub struct Memory {
    pub bytes: f64,
    pub wavelet_bytes: f64,
    pub forest_bytes: f64,
    pub traversals: f64,
    pub trajectories: f64,
    pub partitions: f64,
}

impl Memory {
    pub fn of(index: &SntIndex) -> Memory {
        let m = index.memory_report();
        let bytes = m.counts_bytes + m.wavelet_bytes + m.user_bytes + m.forest_bytes + m.tod_bytes;
        Memory {
            bytes: bytes as f64,
            wavelet_bytes: m.wavelet_bytes as f64,
            forest_bytes: m.forest_bytes as f64,
            traversals: m.total_entries as f64,
            trajectories: index.num_trajectories() as f64,
            partitions: index.num_partitions() as f64,
        }
    }

    fn fields(self) -> [f64; 6] {
        [
            self.bytes,
            self.wavelet_bytes,
            self.forest_bytes,
            self.traversals,
            self.trajectories,
            self.partitions,
        ]
    }

    fn from_fields(f: [f64; 6]) -> Memory {
        Memory {
            bytes: f[0],
            wavelet_bytes: f[1],
            forest_bytes: f[2],
            traversals: f[3],
            trajectories: f[4],
            partitions: f[5],
        }
    }

    /// A sharded index's size, summed over its shards.
    pub fn of_sharded(index: &ShardedSntIndex) -> Memory {
        let shards: Vec<[f64; 6]> = (0..index.num_shards())
            .map(|s| index.with_shard(s, Memory::of).fields())
            .collect();
        Memory::from_fields(std::array::from_fn(|i| shards.iter().map(|f| f[i]).sum()))
    }
}

/// Setup phase durations of one deployment, seconds.
#[derive(Clone, Copy, Default)]
pub struct Phases {
    pub build_s: f64,
    pub snapshot_s: f64,
    pub boot_s: f64,
    pub warm_s: f64,
}

impl Phases {
    pub fn total(&self) -> f64 {
        self.build_s + self.snapshot_s + self.boot_s + self.warm_s
    }
}

/// A child process with a line protocol on its stdout.
pub struct Proc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    name: String,
}

impl Proc {
    fn spawn(name: &str, command: &mut Command) -> Result<Proc, String> {
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Proc {
            child,
            stdin,
            stdout,
            name: name.to_string(),
        })
    }

    /// The next stdout line that starts with `tag`, split on whitespace
    /// (the tag dropped).
    fn expect(&mut self, tag: &str) -> Result<Vec<String>, String> {
        let mut line = String::new();
        loop {
            line.clear();
            match self.stdout.read_line(&mut line) {
                Ok(0) => return Err(format!("{} exited before printing {tag}", self.name)),
                Ok(_) => {}
                Err(e) => return Err(format!("reading {}: {e}", self.name)),
            }
            let mut words = line.split_whitespace();
            if words.next() == Some(tag) {
                return Ok(words.map(str::to_string).collect());
            }
        }
    }

    /// Sends one command line and reads the reply tagged `reply`.
    pub fn command(&mut self, command: &str, reply: &str) -> Result<Vec<String>, String> {
        let stdin = self.stdin.as_mut().ok_or("stdin closed")?;
        writeln!(stdin, "{command}")
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("writing to {}: {e}", self.name))?;
        self.expect(reply)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn parse_addr(words: &[String], what: &str) -> Result<SocketAddr, String> {
    words
        .first()
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| format!("{what} printed no address"))
}

fn number(words: &[String], i: usize) -> f64 {
    words.get(i).and_then(|w| w.parse().ok()).unwrap_or(0.0)
}

/// A running deployment.
pub struct Deployment {
    /// The HTTP front-end clients talk to.
    pub addr: SocketAddr,
    /// Shard node addresses (cluster only).
    pub nodes: Vec<SocketAddr>,
    /// The cluster's in-process twin, built by the bootstrap (cluster
    /// only): the sharded index the node stores were exported from.
    pub sharded: Option<Arc<ShardedSntIndex>>,
    pub phases: Phases,
    /// Children, front-end first: dropped (and so stopped) router before
    /// nodes.
    procs: Vec<Proc>,
    dir: PathBuf,
}

impl Deployment {
    /// Starts `workload`'s deployment over the seed's base history.
    /// Setup time is measured from the trajectories being in memory;
    /// warm-up is the caller's and is added to [`Deployment::phases`].
    pub fn start(
        workload: Workload,
        seed: u64,
        base: &tthr::trajectory::TrajectorySet,
        network: &RoadNetwork,
        dir: PathBuf,
    ) -> Result<Deployment, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        if workload == Workload::ClusterTrip {
            return start_cluster(base, network, dir);
        }
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut command = Command::new(exe);
        command.args(["serve", "--seed", &seed.to_string(), "--dir"]);
        command.arg(&dir);
        let mut server = Proc::spawn("server", &mut command)?;
        let ready = server.expect("READY")?;
        let addr = parse_addr(&ready, "server")?;
        Ok(Deployment {
            addr,
            nodes: Vec::new(),
            sharded: None,
            phases: Phases {
                build_s: number(&ready, 1),
                snapshot_s: number(&ready, 2),
                boot_s: number(&ready, 3),
                warm_s: 0.0,
            },
            procs: vec![server],
            dir,
        })
    }

    /// The single-process server's control channel; `None` on the
    /// cluster.
    fn server(&mut self) -> Option<&mut Proc> {
        match self.nodes.is_empty() {
            true => self.procs.first_mut(),
            false => None,
        }
    }

    /// The single-process server's index size; `None` on the cluster.
    pub fn memory(&mut self) -> Result<Option<Memory>, String> {
        let Some(server) = self.server() else {
            return Ok(None);
        };
        let words = server.command("mem", "MEM")?;
        Ok(Some(Memory::from_fields(std::array::from_fn(|i| {
            number(&words, i)
        }))))
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.procs.clear();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = exe.with_file_name(name);
    match path.exists() {
        true => Ok(path),
        false => Err(format!("{} not built", path.display())),
    }
}

fn start_cluster(
    base: &tthr::trajectory::TrajectorySet,
    network: &RoadNetwork,
    dir: PathBuf,
) -> Result<Deployment, String> {
    let node_bin = sibling_binary("tthr-node")?;
    let router_bin = sibling_binary("tthr-router")?;
    let t0 = Instant::now();
    let sharded = ShardedSntIndex::build(network, base, SntConfig::default(), CLUSTER_SHARDS);
    let build_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut stores = Vec::new();
    for shard in 0..CLUSTER_SHARDS {
        let store_dir = dir.join(format!("node{shard}"));
        NodeStore::init(&store_dir, ShardNodeState::export_from(&sharded, shard))
            .map_err(|e| format!("node store {shard}: {e}"))?;
        stores.push(store_dir);
    }
    let snapshot_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let mut procs = Vec::new();
    let mut nodes = Vec::new();
    for (shard, store_dir) in stores.iter().enumerate() {
        let mut node = Proc::spawn(
            &format!("tthr-node {shard}"),
            Command::new(&node_bin).arg("--dir").arg(store_dir),
        )?;
        nodes.push(parse_addr(&node.expect("LISTENING")?, "tthr-node")?);
        procs.push(node);
    }
    let mut router_cmd = Command::new(&router_bin);
    for node in &nodes {
        router_cmd.arg("--node").arg(node.to_string());
    }
    router_cmd.args(["--preset", world::SCALE, "--probe-ms", "0"]);
    let mut router = Proc::spawn("tthr-router", &mut router_cmd)?;
    let addr = parse_addr(&router.expect("LISTENING")?, "tthr-router")?;
    let boot_s = t2.elapsed().as_secs_f64();
    procs.insert(0, router);
    Ok(Deployment {
        addr,
        nodes,
        sharded: Some(Arc::new(sharded)),
        phases: Phases {
            build_s,
            snapshot_s,
            boot_s,
            warm_s: 0.0,
        },
        procs,
        dir,
    })
}

/// The `serve` subcommand: the single-process deployment, with storage
/// attached (a snapshot, then a WAL fsynced on every append), so the store
/// layer runs on a server that exports its counters. Regenerates the
/// seed's base history, then times index build, snapshot and boot,
/// prints `READY <addr> <build_s> <snapshot_s> <boot_s>`, and answers
/// control lines on stdin until it closes: `mem` → `MEM` and the
/// [`Memory`] fields.
pub fn serve_main(seed: u64, dir: &Path) -> Result<(), String> {
    let (network, base) = world::base_history(seed);
    let network = Arc::new(network);
    let t0 = Instant::now();
    let index = SntIndex::build(&network, &base, SntConfig::default());
    let build_s = t0.elapsed().as_secs_f64();
    drop(base);
    let t_new = Instant::now();
    let service = QueryService::new(index, network, ServiceConfig::default());
    let new_s = t_new.elapsed().as_secs_f64();
    let t1 = Instant::now();
    service
        .save_snapshot(dir.join("store"))
        .map_err(|e| format!("snapshot: {e}"))?;
    let snapshot_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let handle = serve(service.clone(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let boot_s = new_s + t2.elapsed().as_secs_f64();
    let mut out = std::io::stdout();
    let _ = writeln!(
        out,
        "READY {} {build_s} {snapshot_s} {boot_s}",
        handle.local_addr()
    );
    let _ = out.flush();

    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let reply = match line.trim() {
            "mem" => {
                let fields = service.with_index(Memory::of).fields();
                let words: Vec<String> = fields.iter().map(f64::to_string).collect();
                format!("MEM {}", words.join(" "))
            }
            other => format!("ERROR unknown command {other:?}"),
        };
        let _ = writeln!(out, "{reply}");
        let _ = out.flush();
    }
    handle.shutdown();
    Ok(())
}
