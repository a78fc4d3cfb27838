//! Content-addressed plan cache.
//!
//! Two tiers, one invariant. The tiers: a deterministic in-memory LRU of
//! decoded schedules, and an optional on-disk store of
//! [`SavedSchedule`] v2 documents plus an
//! `index.json` manifest (so a service restart re-discovers entries
//! without decoding every file). The invariant: **a hit is never trusted,
//! it is re-verified** — the stored fingerprints must equal the queried
//! [`PlanKey`] and the schedule must pass
//! [`validate_for`](optimus_core::SavedSchedule::validate_for) against the
//! querying workload. An entry that fails either check is dropped and the
//! lookup degrades to a miss; a stale or corrupted cache can cost a
//! search, never a wrong plan.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};

use optimus_json::Json;
use optimus_modeling::Workload;
use optimus_parallel::ParallelPlan;

use optimus_core::SavedSchedule;

use crate::error::PlanSvcError;
use crate::key::PlanKey;

/// One cached plan with its content address.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The content address the plan was stored under.
    pub key: PlanKey,
    /// The decoded schedule.
    pub saved: Arc<SavedSchedule>,
}

/// Cache observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Verified hits served (memory or disk).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Hits decoded from the disk tier into the LRU.
    pub disk_promotions: u64,
    /// Entries found but rejected by re-verification (and dropped).
    pub rejected: u64,
    /// Entries evicted from the in-memory tier.
    pub evicted: u64,
}

fn cache_err(what: &str, e: impl std::fmt::Display) -> PlanSvcError {
    PlanSvcError::Cache(format!("{what}: {e}"))
}

/// Content-addressed plan store (in-memory LRU over an optional disk tier).
#[derive(Debug)]
pub struct PlanCache {
    dir: Option<PathBuf>,
    capacity: usize,
    /// In-memory tier, keyed by entry id.
    entries: BTreeMap<String, CachedPlan>,
    /// Recency order over `entries` — least-recent at the front.
    lru: VecDeque<String>,
    /// Every known entry id (including disk-only ones) and its key.
    index: BTreeMap<String, PlanKey>,
    /// The plans handed out that a caller still holds, by entry id.
    issued: BTreeMap<String, Weak<SavedSchedule>>,
    stats: CacheStats,
}

impl PlanCache {
    /// A memory-only cache holding at most `capacity` decoded plans.
    pub fn in_memory(capacity: usize) -> PlanCache {
        PlanCache {
            dir: None,
            capacity: capacity.max(1),
            entries: BTreeMap::new(),
            lru: VecDeque::new(),
            index: BTreeMap::new(),
            issued: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Opens (creating if needed) a disk-backed cache at `dir` with an
    /// in-memory LRU of `capacity` decoded plans. Existing entries are
    /// discovered through `index.json`; files are decoded lazily on first
    /// hit.
    pub fn open(dir: &Path, capacity: usize) -> Result<PlanCache, PlanSvcError> {
        std::fs::create_dir_all(dir).map_err(|e| cache_err("create dir", e))?;
        let mut cache = PlanCache::in_memory(capacity);
        cache.dir = Some(dir.to_path_buf());
        let index_path = dir.join("index.json");
        if index_path.exists() {
            let text =
                std::fs::read_to_string(&index_path).map_err(|e| cache_err("read index", e))?;
            let doc = Json::parse(&text).map_err(|e| cache_err("parse index", e))?;
            for entry in doc
                .field("entries")
                .and_then(|e| e.as_arr())
                .map_err(|e| cache_err("parse index", e))?
            {
                let id = entry
                    .field("id")
                    .and_then(|v| v.as_str())
                    .map_err(|e| cache_err("parse index", e))?
                    .to_string();
                let fp = |name: &str| -> Result<optimus_cluster::Fingerprint, PlanSvcError> {
                    let hex = entry
                        .field(name)
                        .and_then(|v| v.as_str())
                        .map_err(|e| cache_err("parse index", e))?;
                    optimus_cluster::Fingerprint::parse(hex)
                        .ok_or_else(|| cache_err("parse index", format!("bad fingerprint `{hex}`")))
                };
                let key = PlanKey {
                    topo: fp("topo")?,
                    model: fp("model")?,
                    trace: fp("trace")?,
                };
                cache.index.insert(id, key);
            }
        }
        Ok(cache)
    }

    /// Number of known entries (in-memory and disk-only).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache knows no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Observability counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Stores a plan under `key`, stamping the key's fingerprints into the
    /// document. Replaces any previous entry for the same key. A plan equal to
    /// one a caller still holds for `key` is returned as that allocation.
    pub fn insert(
        &mut self,
        key: PlanKey,
        saved: SavedSchedule,
    ) -> Result<Arc<SavedSchedule>, PlanSvcError> {
        let saved =
            saved.with_fingerprints(key.topo.to_hex(), key.model.to_hex(), key.trace.to_hex());
        let id = key.id();
        self.issued.retain(|_, held| held.strong_count() > 0);
        let saved = match self.issued.get(&id).and_then(Weak::upgrade) {
            Some(held) if *held == saved => held,
            _ => Arc::new(saved),
        };
        self.issued.insert(id.clone(), Arc::downgrade(&saved));
        if let Some(dir) = &self.dir {
            let mut buf = Vec::new();
            saved
                .save(&mut buf)
                .map_err(|e| cache_err("encode entry", e))?;
            std::fs::write(dir.join(format!("{id}.json")), &buf)
                .map_err(|e| cache_err("write entry", e))?;
        }
        self.index.insert(id.clone(), key);
        self.touch(
            id,
            CachedPlan {
                key,
                saved: Arc::clone(&saved),
            },
        );
        if self.dir.is_some() {
            self.write_index()?;
        }
        Ok(saved)
    }

    /// Looks up `key`, re-verifying any candidate entry against the
    /// querying workload and LLM plan. An entry file that fails to decode
    /// or a failed verification drops the entry and reports a miss.
    pub fn lookup(
        &mut self,
        key: &PlanKey,
        w: &Workload,
        llm_plan: &ParallelPlan,
    ) -> Option<Arc<SavedSchedule>> {
        let id = key.id();
        let (cached, from_disk) = match self.entries.get(&id) {
            Some(c) => (Some(c.clone()), false),
            None if self.dir.is_some() && self.index.contains_key(&id) => {
                (self.load_from_disk(&id), true)
            }
            None => {
                self.stats.misses += 1;
                return None;
            }
        };
        let Some(cached) = cached.filter(|c| Self::verify(c, key, w, llm_plan)) else {
            self.remove(&id);
            self.stats.rejected += 1;
            self.stats.misses += 1;
            return None;
        };
        if from_disk {
            self.stats.disk_promotions += 1;
        }
        self.touch(id, cached.clone());
        self.stats.hits += 1;
        Some(cached.saved)
    }

    /// Every decoded (in-memory) entry, in deterministic id order. Used by
    /// the service to pick warm-start hints; disk-only entries are not
    /// decoded for hinting.
    pub fn resident(&self) -> impl Iterator<Item = &CachedPlan> {
        self.entries.values()
    }

    fn verify(cached: &CachedPlan, key: &PlanKey, w: &Workload, llm_plan: &ParallelPlan) -> bool {
        cached.saved.topology_fp == key.topo.to_hex()
            && cached.saved.model_fp == key.model.to_hex()
            && cached.saved.trace_fp == key.trace.to_hex()
            && cached.saved.validate_for(w, llm_plan).is_ok()
    }

    fn load_from_disk(&self, id: &str) -> Option<CachedPlan> {
        let dir = self.dir.as_ref()?;
        let key = *self.index.get(id)?;
        let file = std::fs::File::open(dir.join(format!("{id}.json"))).ok()?;
        let saved = SavedSchedule::load(file).ok()?;
        Some(CachedPlan {
            key,
            saved: Arc::new(saved),
        })
    }

    fn touch(&mut self, id: String, plan: CachedPlan) {
        self.lru.retain(|x| x != &id);
        self.lru.push_back(id.clone());
        self.entries.insert(id, plan);
        while self.entries.len() > self.capacity {
            if let Some(victim) = self.lru.pop_front() {
                self.entries.remove(&victim);
                self.stats.evicted += 1;
                // Disk-backed entries stay in the index; memory-only
                // entries are gone for good.
                if self.dir.is_none() {
                    self.index.remove(&victim);
                }
            }
        }
    }

    fn remove(&mut self, id: &str) {
        self.entries.remove(id);
        self.lru.retain(|x| x != id);
        self.index.remove(id);
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_file(dir.join(format!("{id}.json")));
            let _ = self.write_index();
        }
    }

    fn write_index(&self) -> Result<(), PlanSvcError> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let entries: Vec<Json> = self
            .index
            .iter()
            .map(|(id, key)| {
                Json::obj(vec![
                    ("id", Json::from(id.as_str())),
                    ("topo", Json::from(key.topo.to_hex().as_str())),
                    ("model", Json::from(key.model.to_hex().as_str())),
                    ("trace", Json::from(key.trace.to_hex().as_str())),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("version", Json::from(1u32)),
            ("entries", Json::Arr(entries)),
        ]);
        std::fs::write(dir.join("index.json"), doc.to_pretty())
            .map_err(|e| cache_err("write index", e))
    }
}
