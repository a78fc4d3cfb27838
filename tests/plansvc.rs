//! Plan-service properties: cache hits are bit-identical to fresh
//! searches, warm-started searches return the cold winner, incremental
//! re-planning equals full re-planning across the fault-delta space, and
//! v1 saved-schedule files still load.
//!
//! Regenerate the v1 fixture with:
//! `OPTIMUS_REGEN_GOLDEN=1 cargo test --test plansvc`

use std::path::PathBuf;
use std::sync::Arc;

use optimus::baselines::common::SystemContext;
use optimus::cluster::LinkClass;
use optimus::core::{run_optimus, OptimusConfig, SavedSchedule};
use optimus::modeling::{MllmConfig, TraceConfig, Workload};
use optimus::parallel::ParallelPlan;
use optimus::plansvc::{PlanCache, PlanDelta, PlanKey, PlanService, QueryKind};

fn base() -> (Workload, OptimusConfig, SystemContext) {
    let w = Workload::new(MllmConfig::small(), 8, 16, 1);
    let ctx = SystemContext::hopper(8).unwrap();
    let cfg = OptimusConfig::new(ParallelPlan::new(2, 2, 2).unwrap());
    (w, cfg, ctx)
}

fn service() -> PlanService {
    let (w, cfg, ctx) = base();
    PlanService::new(w, cfg, ctx, 32)
}

#[test]
fn cache_hit_is_bit_identical_to_fresh_search() {
    let (w, cfg, ctx) = base();
    let mut svc = service();
    let first = svc.query(&PlanDelta::Baseline).unwrap();
    assert_eq!(first.stats.kind, QueryKind::Miss);
    let second = svc.query(&PlanDelta::Baseline).unwrap();
    assert_eq!(second.stats.kind, QueryKind::Hit);
    assert_eq!(second.stats.evaluated, 0);
    assert_eq!(*first.saved, *second.saved);

    // The served plan is exactly what a fresh engine run computes.
    let fresh = run_optimus(&w, &cfg, &ctx).unwrap();
    assert_eq!(first.saved.latency_ns, fresh.outcome.latency);
    assert_eq!(first.saved.partition, fresh.outcome.partition);
    assert_eq!(first.saved.enc_plan().unwrap(), fresh.enc_plan);
    let outcome = first.saved.to_outcome();
    assert_eq!(outcome.placements.len(), fresh.outcome.placements.len());
    for (a, b) in outcome.placements.iter().zip(&fresh.outcome.placements) {
        assert_eq!((a.start, a.end, a.dir), (b.start, b.end, b.dir));
    }
}

#[test]
fn warm_started_queries_match_cold_searches() {
    let (w, cfg, ctx) = base();
    let deltas = [
        PlanDelta::DegradedLink {
            class: LinkClass::NvLink,
            bandwidth_factor: 0.5,
            latency_factor: 2.0,
        },
        PlanDelta::DpWidth { dp: 1 },
        PlanDelta::TraceSeed {
            trace: TraceConfig::llava_style(),
            seed: 17,
        },
    ];
    for seed_workers in [1usize, 4] {
        let mut svc = {
            let (w, mut cfg, ctx) = base();
            cfg.search_workers = seed_workers;
            PlanService::new(w, cfg, ctx, 32)
        };
        let baseline = svc.query(&PlanDelta::Baseline).unwrap();
        assert_eq!(baseline.stats.kind, QueryKind::Miss);
        for delta in &deltas {
            let warm = svc.query(delta).unwrap();
            // Same-shape deltas always warm-start from the baseline. The
            // DP resize changes the candidate space; the baseline winner
            // may not exist there, in which case the engine falls back to
            // a cold sweep (and the answer is identical either way).
            if !matches!(delta, PlanDelta::DpWidth { .. }) {
                assert_eq!(warm.stats.kind, QueryKind::Warm, "{}", delta.label());
            }
            // The warm answer is bit-identical to a cold engine run on the
            // delta's configuration.
            let (w2, cfg2, ctx2) = delta.apply(&w, &cfg, &ctx).unwrap();
            let cold = run_optimus(&w2, &cfg2, &ctx2).unwrap();
            assert_eq!(warm.saved.latency_ns, cold.outcome.latency);
            assert_eq!(warm.saved.partition, cold.outcome.partition);
            assert_eq!(warm.saved.enc_plan().unwrap(), cold.enc_plan);
            assert_eq!(warm.saved.mb_scales, cold.outcome.mb_scales);
        }
    }
}

#[test]
fn incremental_reuse_equals_full_replan() {
    let (w, cfg, ctx) = base();
    // hopper(8) is a single node, so both RDMA and storage degradations
    // are provably invisible to planning.
    let deltas = [
        PlanDelta::DegradedLink {
            class: LinkClass::Storage,
            bandwidth_factor: 0.25,
            latency_factor: 4.0,
        },
        PlanDelta::DegradedLink {
            class: LinkClass::Rdma,
            bandwidth_factor: 0.5,
            latency_factor: 2.0,
        },
    ];
    // Cross-check mode makes the service itself prove every reuse against
    // a full cold search before serving it.
    let mut svc = {
        let (w, cfg, ctx) = base();
        PlanService::new(w, cfg, ctx, 32).with_cross_check(true)
    };
    svc.query(&PlanDelta::Baseline).unwrap();
    for delta in &deltas {
        let inc = svc.query(delta).unwrap();
        assert_eq!(inc.stats.kind, QueryKind::Incremental, "{}", delta.label());
        assert_eq!(inc.stats.evaluated, 0);
        let (w2, cfg2, ctx2) = delta.apply(&w, &cfg, &ctx).unwrap();
        let full = run_optimus(&w2, &cfg2, &ctx2).unwrap();
        assert_eq!(inc.saved.latency_ns, full.outcome.latency);
        assert_eq!(inc.saved.partition, full.outcome.partition);
        assert_eq!(inc.saved.enc_plan().unwrap(), full.enc_plan);
    }
    let c = svc.counters();
    assert_eq!((c.misses, c.incremental), (1, 2));
}

#[test]
fn batched_queries_are_deterministic_across_workers() {
    let deltas = vec![
        PlanDelta::Baseline,
        PlanDelta::DegradedLink {
            class: LinkClass::NvLink,
            bandwidth_factor: 0.5,
            latency_factor: 2.0,
        },
        PlanDelta::DpWidth { dp: 1 },
        PlanDelta::TraceSeed {
            trace: TraceConfig::web_interleaved(),
            seed: 3,
        },
    ];
    let mut one = service();
    let a = one.query_batch(&deltas, 1).unwrap();
    let mut four = service();
    let b = four.query_batch(&deltas, 4).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.key, y.key);
        assert_eq!(*x.saved, *y.saved);
        assert_eq!(x.stats.kind, y.stats.kind);
    }
}

#[test]
fn replanned_address_shares_the_answer_a_caller_holds() {
    let (w, cfg, ctx) = base();
    let mut svc = PlanService::new(w, cfg, ctx, 1);
    let first = svc.query(&PlanDelta::Baseline).unwrap();
    svc.query(&PlanDelta::DpWidth { dp: 1 }).unwrap();
    assert_eq!(svc.cache().stats().evicted, 1);
    let again = svc.query(&PlanDelta::Baseline).unwrap();
    assert_ne!(again.stats.kind, QueryKind::Hit);
    assert!(Arc::ptr_eq(&first.saved, &again.saved));
}

#[test]
fn disk_cache_survives_reopen_and_reverifies() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("plansvc-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (w, cfg, ctx) = base();
    let key = {
        let cache = PlanCache::open(&dir, 8).unwrap();
        let mut svc = PlanService::with_cache(w.clone(), cfg.clone(), ctx.clone(), cache);
        let ans = svc.query(&PlanDelta::Baseline).unwrap();
        assert_eq!(ans.stats.kind, QueryKind::Miss);
        ans.key
    };
    // A fresh process re-discovers the entry through the index and serves
    // it from disk — still re-verified against the workload.
    let mut cache = PlanCache::open(&dir, 8).unwrap();
    assert_eq!(cache.len(), 1);
    let hit = cache.lookup(&key, &w, &cfg.llm_plan).unwrap();
    assert_eq!(hit.topology_fp, key.topo.to_hex());
    assert_eq!(cache.stats().disk_promotions, 1);
    // A different workload must not be served by the same entry.
    let other = Workload::new(MllmConfig::small(), 8, 32, 1);
    let other_key = PlanKey::for_query(&other, &cfg, &ctx);
    assert!(cache.lookup(&other_key, &other, &cfg.llm_plan).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn undecodable_disk_entry_is_dropped_and_replanned() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("plansvc-corrupt-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (w, cfg, ctx) = base();
    let key = {
        let cache = PlanCache::open(&dir, 8).unwrap();
        let mut svc = PlanService::with_cache(w.clone(), cfg.clone(), ctx.clone(), cache);
        svc.query(&PlanDelta::Baseline).unwrap().key
    };
    let entry = dir.join(format!("{}.json", key.id()));
    let text = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &text[..text.len() / 2]).unwrap();

    let mut cache = PlanCache::open(&dir, 8).unwrap();
    assert_eq!(cache.len(), 1);
    assert!(cache.lookup(&key, &w, &cfg.llm_plan).is_none());
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.rejected, stats.hits), (1, 1, 0));
    assert_eq!(cache.len(), 0);
    let index = std::fs::read_to_string(dir.join("index.json")).unwrap();
    assert!(!index.contains(&key.id()), "{index}");

    let mut svc = PlanService::with_cache(w, cfg, ctx, cache);
    assert_eq!(
        svc.query(&PlanDelta::Baseline).unwrap().stats.kind,
        QueryKind::Miss
    );
    assert_eq!(
        svc.query(&PlanDelta::Baseline).unwrap().stats.kind,
        QueryKind::Hit
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v1_saved_schedule_fixture_still_loads() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/saved_schedule_v1.json");
    if std::env::var_os("OPTIMUS_REGEN_GOLDEN").is_some() {
        let (w, cfg, ctx) = base();
        let run = run_optimus(&w, &cfg, &ctx).unwrap();
        let mut saved = SavedSchedule::capture(&run, &w);
        saved.version = 1;
        let mut buf = Vec::new();
        saved.save(&mut buf).unwrap();
        // True v1 files predate the fingerprint fields.
        let v1: String = String::from_utf8(buf)
            .unwrap()
            .lines()
            .filter(|l| {
                !l.contains("topology_fp") && !l.contains("model_fp") && !l.contains("trace_fp")
            })
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(&path, v1).unwrap();
    }
    let file = std::fs::File::open(&path).unwrap_or_else(|e| {
        panic!(
            "missing v1 fixture {path:?} ({e}); regenerate with \
             OPTIMUS_REGEN_GOLDEN=1 cargo test --test plansvc"
        )
    });
    let saved = SavedSchedule::load(file).unwrap();
    assert_eq!(saved.version, 1);
    assert!(saved.topology_fp.is_empty());
    assert!(saved.model_fp.is_empty());
    assert!(saved.trace_fp.is_empty());
    // The old file still validates and reconstructs against its workload.
    let (w, cfg, ctx) = base();
    saved.validate_for(&w, &cfg.llm_plan).unwrap();
    let fresh = run_optimus(&w, &cfg, &ctx).unwrap();
    assert_eq!(saved.latency_ns, fresh.outcome.latency);
    assert_eq!(saved.partition, fresh.outcome.partition);
}
