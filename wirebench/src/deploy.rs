//! Bringing the serving stack up and down in this process: the
//! standalone reactor (in-memory or durable) or a front → owner →
//! follower cluster. Everything here goes through the program's public
//! constructors; nothing is re-implemented.

use locble_cluster::{Front, FrontConfig, FrontHandle};
use locble_core::{EnvAware, Estimator, EstimatorConfig};
use locble_engine::{Engine, EngineConfig};
use locble_motion::MotionTrack;
use locble_net::wire::{NodeEntry, NodeRole, WirePartitionMap};
use locble_net::{ClusterConfig, ReplicationPolicy, Server, ServerConfig, ServerHandle};
use locble_obs::Obs;
use locble_scenario::train_default_envaware;
use locble_store::{FsyncPolicy, SessionStore};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// EnvAware training seed. The trained model is deployment
/// configuration, like the engine config: fixed, so the run seed varies
/// only the walk the program is fed.
pub const MODEL_SEED: u64 = 0xE7A;

/// WAL records between snapshots on durable servers.
pub const CHECKPOINT_EVERY: u64 = 1_000_000;

/// The cluster's owner and follower WALs are written but never
/// fsync'd (the OS flushes them; a process crash loses nothing). The
/// cluster workload prices the forward hop and the replicate round trip;
/// fsync is priced on `track`, and on a shared VM disk two fsyncs per
/// batch made the cluster's throughput follow the disk from run to run.
const CLUSTER_FSYNC: FsyncPolicy = FsyncPolicy::Never;

/// Which server topology a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `Server::bind`: no store.
    InMemory,
    /// `Server::bind_durable`, fsync on every append.
    Durable,
    /// `cluster::Front` → one `bind_cluster` owner → one follower,
    /// synchronous replication.
    Cluster,
}

/// Observability handles for one deployment. All noop on untraced
/// runs; on traced runs the server (and the prototype and store it
/// owns) share one recording handle and the front has its own.
#[derive(Clone)]
pub struct Handles {
    /// The engine-owning server's handle (also the prototype's and the
    /// store's).
    pub server: Obs,
    /// The cluster front's handle.
    pub front: Obs,
}

impl Handles {
    /// Every handle disabled.
    pub fn noop() -> Handles {
        Handles {
            server: Obs::noop(),
            front: Obs::noop(),
        }
    }
}

/// A running deployment.
pub struct Deployment {
    /// Where clients send traffic (the front on a cluster).
    pub addr: SocketAddr,
    /// The engine-owning server (the owner on a cluster).
    pub owner_addr: SocketAddr,
    server: ServerHandle,
    follower: Option<ServerHandle>,
    front: Option<FrontHandle>,
    /// Store directories this deployment writes.
    pub dirs: Vec<PathBuf>,
}

/// The EnvAware-equipped prototype every session clones.
pub fn prototype(model: &EnvAware, obs: &Obs) -> Estimator {
    Estimator::with_envaware(EstimatorConfig::default(), model.clone()).with_obs(obs.clone())
}

fn engine(model: &EnvAware, motion: &MotionTrack, obs: &Obs) -> Engine {
    let mut engine = Engine::new(EngineConfig::default(), prototype(model, obs), Obs::noop());
    engine.set_motion(motion.clone());
    engine
}

/// Set-up as the benchmark times it: prototype training, engine build,
/// store open and server/front bind. Stores live under `dir`.
pub fn set_up(
    topology: Topology,
    motion: &MotionTrack,
    handles: &Handles,
    dir: &Path,
) -> std::io::Result<Deployment> {
    let model = train_default_envaware(MODEL_SEED);
    let obs = &handles.server;
    match topology {
        Topology::InMemory => {
            let server = Server::bind(
                engine(&model, motion, obs),
                ServerConfig::default(),
                obs.clone(),
            )?;
            Ok(Deployment {
                addr: server.addr(),
                owner_addr: server.addr(),
                server,
                follower: None,
                front: None,
                dirs: Vec::new(),
            })
        }
        Topology::Durable => {
            let store_dir = dir.join("store");
            let store = SessionStore::open(&store_dir, FsyncPolicy::EveryAppend, obs.clone())?;
            let server = Server::bind_durable(
                engine(&model, motion, obs),
                store,
                CHECKPOINT_EVERY,
                ServerConfig::default(),
                obs.clone(),
            )?;
            Ok(Deployment {
                addr: server.addr(),
                owner_addr: server.addr(),
                server,
                follower: None,
                front: None,
                dirs: vec![store_dir],
            })
        }
        Topology::Cluster => {
            let empty = WirePartitionMap {
                epoch: 0,
                nodes: Vec::new(),
            };
            let follower_dir = dir.join("follower");
            let follower = Server::bind_cluster(
                engine(&model, motion, &Obs::noop()),
                SessionStore::open(&follower_dir, CLUSTER_FSYNC, Obs::noop())?,
                CHECKPOINT_EVERY,
                ServerConfig::default(),
                ClusterConfig {
                    node_id: 1,
                    role: NodeRole::Follower,
                    map: empty.clone(),
                    replica_addr: None,
                    replication: ReplicationPolicy::SyncAck,
                },
                Obs::noop(),
            )?;
            let owner_dir = dir.join("owner");
            let owner = Server::bind_cluster(
                engine(&model, motion, obs),
                SessionStore::open(&owner_dir, CLUSTER_FSYNC, obs.clone())?,
                CHECKPOINT_EVERY,
                ServerConfig::default(),
                ClusterConfig {
                    node_id: 1,
                    role: NodeRole::Owner,
                    map: empty,
                    replica_addr: Some(follower.addr().to_string()),
                    replication: ReplicationPolicy::SyncAck,
                },
                obs.clone(),
            )?;
            let front = Front::bind(
                FrontConfig {
                    addr: "127.0.0.1:0".to_string(),
                    map: WirePartitionMap {
                        epoch: 1,
                        nodes: vec![NodeEntry {
                            node_id: 1,
                            addr: owner.addr().to_string(),
                        }],
                    },
                },
                handles.front.clone(),
            )?;
            Ok(Deployment {
                addr: front.addr(),
                owner_addr: owner.addr(),
                server: owner,
                follower: Some(follower),
                front: Some(front),
                dirs: vec![owner_dir, follower_dir],
            })
        }
    }
}

impl Deployment {
    /// Shuts everything down in dependency order and returns the
    /// engine-owning server's drained engine.
    pub fn tear_down(self) -> Engine {
        if let Some(front) = self.front {
            front.shutdown();
        }
        let engine = self.server.shutdown();
        if let Some(follower) = self.follower {
            follower.shutdown();
        }
        engine
    }
}

/// Sets up `times` deployments one after another in `dir` (tearing
/// down all but the last) and returns the last with every set-up's
/// duration, seconds. Tear-downs are not timed. The set-ups share one
/// store directory: each tear-down leaves an empty WAL (plus its final
/// snapshot, which opening ignores), so no set-up pays for deleting
/// the previous one's files.
pub fn set_up_repeatedly(
    times: usize,
    topology: Topology,
    motion: &MotionTrack,
    handles: &Handles,
    dir: &Path,
) -> std::io::Result<(Deployment, Vec<f64>)> {
    let mut durations = Vec::with_capacity(times);
    loop {
        let t0 = Instant::now();
        let deployment = set_up(topology, motion, handles, dir)?;
        durations.push(t0.elapsed().as_secs_f64());
        if durations.len() >= times {
            return Ok((deployment, durations));
        }
        deployment.tear_down();
    }
}
