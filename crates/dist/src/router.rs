//! The failover [`Router`]: region/convert queries against per-rank
//! replica stores, trying replicas in placement order and failing over
//! past dead or failing ranks (DESIGN.md §12).
//!
//! Each member rank gets a PR-7 segmented [`ShardStore`] over its
//! replica repository, wired with the replica repairer
//! ([`crate::replicate::replica_repairer`]) so a structurally damaged
//! replica heals lazily from a live sibling instead of quarantining.
//! Liveness comes from missed-heartbeat epochs on the injected
//! [`Clock`] ([`HealthTracker`]); a dead or erroring replica routes the
//! query to the next one in the shard's replica ordering. With R live
//! replicas of every shard, killing any single rank leaves every query
//! answerable — and the answer **byte-identical** to the healthy run,
//! because every replica serves the same published bytes through the
//! same conversion path (`tests/failover.rs` enforces this for every
//! rank, over the socket, and under injected delivery faults).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use ngs_bamx::Region;
use ngs_converter::bam_converter::convert_index_list;
use ngs_converter::{ConvertConfig, TargetFormat};
use ngs_formats::error::{Error, Result};
use ngs_obs::{Clock, Registry};
use ngs_query::{RetryPolicy, ShardStore};

use crate::health::HealthTracker;
use crate::metrics::DistMetrics;
use crate::placement::{rebalance_leave, PlacementMap, RebalancePlan};
use crate::replicate::{apply_rebalance, rank_repo_dir, replica_repairer};

/// One routed request: convert `region` of `dataset` to `format`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistQuery {
    /// Dataset (shard) name.
    pub dataset: String,
    /// Region text, e.g. `chr1:100-5000` or `chr1`.
    pub region: String,
    /// Output format.
    pub format: TargetFormat,
}

/// Executes one query against a single rank's store, returning the
/// converted bytes. This is the rank-local half shared by the
/// in-process [`Router`] and the RPC server ([`crate::rpc::serve`]);
/// identical inputs produce identical bytes on every replica.
pub fn serve_query(
    store: &ShardStore,
    query: &DistQuery,
    convert: &ConvertConfig,
    out_dir: &Path,
) -> Result<Vec<u8>> {
    let (shard, _hit) = store.get(&query.dataset)?;
    let region = Region::parse(&query.region, shard.bamx.header())?;
    let ref_id = region.resolve(shard.bamx.header())?;
    let indices = shard.baix.shard_indices(shard.baix.locate(ref_id, &region));
    std::fs::create_dir_all(out_dir)?;
    // Same stem formula as the query engine / one-shot partial
    // conversion, so part files are byte-identical across serving modes.
    let stem =
        format!("{}.{}", query.dataset, region.to_string().replace([':', '-'], "_"));
    let (_stats, path) =
        convert_index_list(&shard.bamx, &indices, query.format, out_dir, &stem, 0, true, convert)?;
    Ok(std::fs::read(path)?)
}

/// Routing configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Per-rank store cache capacity (datasets).
    pub cache_capacity: usize,
    /// Heartbeat TTL: a rank missing one whole TTL window is dead.
    pub heartbeat_ttl: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { cache_capacity: 64, heartbeat_ttl: Duration::from_secs(5) }
    }
}

/// Failover query router over per-rank replica stores.
pub struct Router {
    map: PlacementMap,
    root: PathBuf,
    stores: BTreeMap<usize, Arc<ShardStore>>,
    health: HealthTracker,
    clock: Arc<dyn Clock>,
    metrics: DistMetrics,
    registry: Arc<Registry>,
    convert: ConvertConfig,
    scratch: PathBuf,
    config: RouterConfig,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router").field("ranks", &self.map.ranks()).finish_non_exhaustive()
    }
}

impl Router {
    /// A router over the replica repos under `root` for `map`'s member
    /// ranks. `scratch` receives per-rank conversion output.
    pub fn new(
        map: PlacementMap,
        root: &Path,
        scratch: &Path,
        clock: Arc<dyn Clock>,
        registry: Arc<Registry>,
        config: RouterConfig,
    ) -> Result<Self> {
        let mut stores = BTreeMap::new();
        for &rank in map.ranks() {
            stores.insert(rank, Self::build_store(&map, root, rank, &clock, &registry, &config)?);
        }
        let health =
            HealthTracker::new(map.ranks().iter().copied(), config.heartbeat_ttl, clock.clone())
                .with_obs(&registry);
        let metrics = DistMetrics::register(&registry);
        Ok(Router {
            map,
            root: root.to_path_buf(),
            stores,
            health,
            clock,
            metrics,
            registry,
            convert: ConvertConfig::with_ranks(1),
            scratch: scratch.to_path_buf(),
            config,
        })
    }

    fn build_store(
        map: &PlacementMap,
        root: &Path,
        rank: usize,
        clock: &Arc<dyn Clock>,
        registry: &Arc<Registry>,
        config: &RouterConfig,
    ) -> Result<Arc<ShardStore>> {
        let store = ShardStore::open_with(
            rank_repo_dir(root, rank),
            config.cache_capacity,
            Arc::clone(clock),
            RetryPolicy::default(),
        )?
        .with_obs(registry)
        .with_repairer(Box::new(replica_repairer(root.to_path_buf(), rank, map.clone())));
        Ok(Arc::new(store))
    }

    /// The health tracker (drive heartbeats / clock from tests and the
    /// CLI harness).
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// Current placement.
    pub fn placement(&self) -> &PlacementMap {
        &self.map
    }

    /// Marks `rank` dead without rebalancing: queries fail over to the
    /// surviving replicas in placement order.
    pub fn kill(&self, rank: usize) {
        self.health.mark_dead(rank);
    }

    /// Handles a permanent departure: marks `rank` dead, computes the
    /// minimal-movement plan, re-materialises the lost replica slots
    /// from surviving copies (through the crash-safe publication path),
    /// and rebuilds the affected stores against the new map. Returns
    /// the applied plan.
    pub fn apply_leave(&mut self, dead: usize) -> Result<RebalancePlan> {
        self.health.mark_dead(dead);
        let (after, plan) = rebalance_leave(&self.map, dead);
        apply_rebalance(&plan, &after, &self.root, Some(&self.registry))?;
        self.map = after;
        self.stores.remove(&dead);
        // Repairer closures capture the placement; rebuild stores so
        // future repairs consult the post-leave replica sets.
        for &rank in self.map.ranks() {
            let store = Self::build_store(
                &self.map,
                &self.root,
                rank,
                &self.clock,
                &self.registry,
                &self.config,
            )?;
            self.stores.insert(rank, store);
        }
        Ok(plan)
    }

    /// Routes one query: replicas are tried in placement order, dead
    /// ranks are skipped, failed attempts fail over to the next live
    /// replica. Every skip/failure bumps `dist.failovers`; a query that
    /// succeeded only after failover records its end-to-end latency in
    /// `dist.failover_latency_ns`.
    pub fn query(&self, query: &DistQuery) -> Result<Vec<u8>> {
        if ngs_obs::enabled() {
            self.metrics.queries.add(1);
        }
        let started = self.clock.now();
        let replicas = self.map.replicas(&query.dataset);
        if replicas.is_empty() {
            return Err(Error::InvalidRecord(format!(
                "dataset {:?} is not placed on any rank",
                query.dataset
            )));
        }
        let mut failovers = 0u64;
        let mut last_err: Option<Error> = None;
        for &rank in replicas {
            if !self.health.alive(rank) {
                failovers += 1;
                continue;
            }
            let Some(store) = self.stores.get(&rank) else {
                failovers += 1;
                continue;
            };
            let out_dir = self.scratch.join(format!("rank{rank:03}"));
            match serve_query(store, query, &self.convert, &out_dir) {
                Ok(bytes) => {
                    self.health.beat(rank);
                    if failovers > 0 && ngs_obs::enabled() {
                        self.metrics.failovers.add(failovers);
                        self.metrics
                            .failover_latency_ns
                            .record_duration(self.clock.now().saturating_sub(started));
                    }
                    return Ok(bytes);
                }
                Err(e) => {
                    failovers += 1;
                    last_err = Some(e);
                }
            }
        }
        if failovers > 0 && ngs_obs::enabled() {
            self.metrics.failovers.add(failovers);
        }
        Err(last_err.unwrap_or_else(|| {
            Error::InvalidRecord(format!(
                "no live replica of {:?} among ranks {:?}",
                query.dataset, replicas
            ))
        }))
    }
}
