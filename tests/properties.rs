//! Property-style tests over the core data structures and invariants.
//!
//! Inputs are driven by the in-repo deterministic PRNG (`optimus-detrand`)
//! instead of `proptest`, so the suite needs no registry access and every
//! failure reproduces bit-identically from the fixed seeds.

use optimus::cluster::{ClusterTopology, CollectiveKind, DurNs, ProcessGroup};
use optimus::parallel::{
    composition_count, enumerate_encoder_plans, enumerate_plans, Compositions, ParallelPlan,
};
use optimus::pipeline::{balance_layers, gpipe, interleaved_1f1b, one_f_one_b};
use optimus::sim::{simulate, Stream, TaskGraph, TaskId, TaskKind};
use optimus_detrand::{rngs::StdRng, RngExt, SeedableRng};

/// Every composition sums to n with strictly positive parts, and the count
/// matches the closed form.
#[test]
fn compositions_sound() {
    let mut rng = StdRng::seed_from_u64(0xC0_1111);
    for _ in 0..64 {
        let n = rng.random_range(1u32..14);
        let m = rng.random_range(1u32..6);
        if m > n {
            continue;
        }
        let all: Vec<Vec<u32>> = Compositions::new(n, m).unwrap().collect();
        assert_eq!(all.len() as u128, composition_count(n, m));
        for c in &all {
            assert_eq!(c.iter().sum::<u32>(), n);
            assert!(c.iter().all(|&x| x >= 1));
            assert_eq!(c.len(), m as usize);
        }
        // All distinct.
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }
}

/// The balanced partitioner respects both lower bounds and is exact against
/// brute force on small instances.
#[test]
fn balance_layers_optimal() {
    let mut rng = StdRng::seed_from_u64(0xBA_1A9C);
    for _ in 0..64 {
        let len = rng.random_range(1usize..10);
        let times: Vec<u64> = (0..len).map(|_| rng.random_range(1u64..50)).collect();
        let m = rng.random_range(1u32..5);
        if times.len() < m as usize {
            continue;
        }
        let durs: Vec<DurNs> = times.iter().map(|&t| DurNs(t)).collect();
        let result = balance_layers(&durs, m).unwrap();
        assert_eq!(
            result.layers_per_stage.iter().sum::<u32>() as usize,
            times.len()
        );
        assert!(result.layers_per_stage.iter().all(|&c| c >= 1));

        // Brute force over all compositions of len(times) into m parts.
        let mut best = u64::MAX;
        for comp in Compositions::new(times.len() as u32, m).unwrap() {
            let mut idx = 0;
            let mut worst = 0u64;
            for &c in &comp {
                let sum: u64 = times[idx..idx + c as usize].iter().sum();
                worst = worst.max(sum);
                idx += c as usize;
            }
            best = best.min(worst);
        }
        assert_eq!(result.bottleneck.0, best);
    }
}

/// Any forward-dependency task graph simulates to completion with a makespan
/// at least the critical-path bound and at most the serial sum.
#[test]
fn random_dags_simulate() {
    let mut rng = StdRng::seed_from_u64(0xDA6_DA6);
    for _ in 0..48 {
        let n_tasks = rng.random_range(1usize..60);
        let mut g = TaskGraph::new(4);
        let mut ids: Vec<TaskId> = Vec::new();
        for _ in 0..n_tasks {
            let dev = rng.random_range(0u32..4);
            let n_deps = rng.random_range(0usize..4);
            let dur = rng.random_range(1u64..100);
            // Deps drawn from already-created tasks (forward time).
            let deps: Vec<TaskId> = (0..n_deps.min(ids.len()))
                .map(|k| ids[ids.len() - 1 - k])
                .collect();
            let stream = match dur % 3 {
                0 => Stream::Compute,
                1 => Stream::TpComm,
                _ => Stream::P2p,
            };
            ids.push(g.push("t", dev, stream, DurNs(dur), TaskKind::Generic, deps));
        }
        let r = simulate(&g).unwrap();
        let serial: u64 = g.tasks().iter().map(|t| t.duration.0).sum();
        assert!(r.makespan().0 <= serial);
        // Longest dependency chain is a lower bound.
        let mut depth = vec![0u64; g.len()];
        for t in g.tasks() {
            let base = t.deps.iter().map(|d| depth[d.index()]).max().unwrap_or(0);
            depth[t.id.index()] = base + t.duration.0;
        }
        let bound = depth.iter().copied().max().unwrap_or(0);
        assert!(
            r.makespan().0 >= bound,
            "makespan {} < bound {}",
            r.makespan().0,
            bound
        );
        // No two tasks overlap on the same resource.
        for dev in 0..4 {
            for stream in Stream::ALL {
                let spans = r.stream_spans(&g, dev, stream);
                for w in spans.windows(2) {
                    assert!(w[0].end <= w[1].start);
                }
            }
        }
    }
}

/// Every generated pipeline schedule validates, for all shapes.
#[test]
fn schedules_validate() {
    for pp in 1u32..6 {
        for vpp in 1u32..4 {
            for k in 1u32..5 {
                let n = pp * k; // interleaving needs pp | n
                one_f_one_b(pp, n).unwrap().validate().unwrap();
                gpipe(pp, n).unwrap().validate().unwrap();
                interleaved_1f1b(pp, vpp, n, None)
                    .unwrap()
                    .validate()
                    .unwrap();
            }
        }
    }
}

/// Collective times are monotone in payload size.
#[test]
fn collectives_monotone() {
    let topo = ClusterTopology::hopper_cluster(16).unwrap();
    let g = ProcessGroup::contiguous(0, 8).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0_11EC);
    for _ in 0..128 {
        let bytes_a = rng.random_range(1u64..1_000_000);
        let bytes_b = rng.random_range(1u64..1_000_000);
        let (small, large) = (bytes_a.min(bytes_b), bytes_a.max(bytes_b));
        let ts = topo.collective_time(CollectiveKind::AllGather, small, &g);
        let tl = topo.collective_time(CollectiveKind::AllGather, large, &g);
        assert!(ts <= tl);
    }
}

/// Layer splits cover all layers with stage sizes differing by ≤ 1.
#[test]
fn layer_split_even() {
    let mut rng = StdRng::seed_from_u64(0x1A_9E55);
    for _ in 0..96 {
        let layers = rng.random_range(1u32..200);
        let pp = rng.random_range(1u32..9);
        let vpp = rng.random_range(1u32..4);
        let plan = ParallelPlan::with_vpp(1, pp, 1, vpp).unwrap();
        let split = plan.layer_split(layers);
        assert_eq!(split.iter().sum::<u32>(), layers);
        let min = split.iter().min().unwrap();
        let max = split.iter().max().unwrap();
        assert!(max - min <= 1);
    }
}

/// Every enumerated encoder plan satisfies the §4.1 colocation divisibility
/// constraints: `PP_enc | PP_llm`, `TP_enc | TP_llm`, same GPU count, and
/// `DP_enc` a multiple of `DP_llm`.
#[test]
fn encoder_plans_satisfy_divisibility() {
    let mut rng = StdRng::seed_from_u64(0xE1C_0DE);
    let mut checked = 0usize;
    for _ in 0..256 {
        let gpus = 8u32 << rng.random_range(0u32..6); // 8..=256
        let max_llm_pp = rng.random_range(1u32..16);
        for llm in enumerate_plans(gpus, 8, max_llm_pp) {
            let max_enc_pp = rng.random_range(1u32..64);
            let encs = enumerate_encoder_plans(&llm, max_enc_pp);
            assert!(!encs.is_empty(), "no encoder plan for {llm}");
            for e in &encs {
                assert_eq!(llm.pp % e.pp, 0, "PP_enc ∤ PP_llm: {e} vs {llm}");
                assert_eq!(llm.tp % e.tp, 0, "TP_enc ∤ TP_llm: {e} vs {llm}");
                assert_eq!(e.num_gpus(), llm.num_gpus(), "{e}");
                assert_eq!(e.dp % llm.dp, 0, "{e}");
                assert!(e.pp <= max_enc_pp, "{e}");
                checked += 1;
            }
            // No duplicates in the enumeration.
            let mut seen = encs.clone();
            seen.sort_by_key(|p| (p.dp, p.pp, p.tp));
            seen.dedup();
            assert_eq!(seen.len(), encs.len());
        }
    }
    assert!(checked > 1000, "only {checked} candidates exercised");
}

/// The general plan enumeration tiles the cluster exactly and respects the
/// node width.
#[test]
fn enumerated_plans_tile_cluster() {
    let mut rng = StdRng::seed_from_u64(0x717E5);
    for _ in 0..64 {
        let nodes = rng.random_range(1u32..32);
        let gpus = nodes * 8;
        let max_pp = rng.random_range(1u32..20);
        for p in enumerate_plans(gpus, 8, max_pp) {
            assert_eq!(p.num_gpus(), gpus);
            assert!(p.tp <= 8 && 8 % p.tp == 0);
            assert!(p.pp <= max_pp);
        }
    }
}
