//! Micro-benchmarks of the hot kernels: walker steps, the removal
//! criterion, common-neighbor intersection, overlay operations, the
//! client cache's slot-map lookup, the history codec, the history-store
//! merge the fleet's gossip folds at every barrier, the discrete-event
//! query pipeline (and the full walk-not-wait driver), the QoS layer's
//! cost prediction / budget ledger / EDF epoch planning, and the
//! spectral solvers.

use std::collections::HashMap;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mto_core::mto::{MtoConfig, MtoSampler};
use mto_core::rewire::{removal_criterion, OverlayDelta};
use mto_core::walk::{MetropolisHastingsWalk, MhrwConfig, SimpleRandomWalk, SrwConfig, Walker};
use mto_graph::generators::paper_barbell;
use mto_graph::{CsrGraph, NodeId};
use mto_osn::{CachedClient, OsnService, QueryResponse};
use mto_serve::history::HistoryStore;
use mto_spectral::jacobi::{jacobi_eigen, JacobiOptions};
use mto_spectral::power::{slem_power_iteration, PowerIterationOptions};
use mto_spectral::transition::symmetrized_transition;

fn bench_walk_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/walk-steps");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(3));
    group.throughput(Throughput::Elements(1_000));

    let graph = mto_bench::mini_epinions_graph(40);

    group.bench_function("srw-1k-steps", |b| {
        b.iter(|| {
            let service = OsnService::with_defaults(&graph);
            let mut w = SimpleRandomWalk::new(
                CachedClient::new(service),
                NodeId(0),
                SrwConfig { seed: 1, lazy: false },
            )
            .unwrap();
            for _ in 0..1_000 {
                w.step().unwrap();
            }
            std::hint::black_box(w.current())
        })
    });

    group.bench_function("mhrw-1k-steps", |b| {
        b.iter(|| {
            let service = OsnService::with_defaults(&graph);
            let mut w = MetropolisHastingsWalk::new(
                CachedClient::new(service),
                NodeId(0),
                MhrwConfig { seed: 1 },
            )
            .unwrap();
            for _ in 0..1_000 {
                w.step().unwrap();
            }
            std::hint::black_box(w.current())
        })
    });

    group.bench_function("mto-1k-steps", |b| {
        b.iter(|| {
            let service = OsnService::with_defaults(&graph);
            let mut w =
                MtoSampler::new(CachedClient::new(service), NodeId(0), MtoConfig::default())
                    .unwrap();
            for _ in 0..1_000 {
                w.step().unwrap();
            }
            std::hint::black_box(w.current())
        })
    });

    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/kernels");
    group.sample_size(50);
    group.measurement_time(Duration::from_secs(2));

    let graph = mto_bench::mini_epinions_graph(40);

    group.bench_function("removal-criterion-1k-calls", |b| {
        b.iter(|| {
            let mut fired = 0usize;
            for i in 0..1_000usize {
                if removal_criterion(i % 12, 3 + i % 9, 3 + (i * 7) % 11) {
                    fired += 1;
                }
            }
            std::hint::black_box(fired)
        })
    });

    group.bench_function("common-neighbors-all-edges", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for e in graph.edges() {
                total += graph.common_neighbor_count(e.small(), e.large());
            }
            std::hint::black_box(total)
        })
    });

    group.bench_function("csr-freeze", |b| {
        b.iter(|| std::hint::black_box(CsrGraph::from_graph(&graph).num_edges()))
    });

    group.bench_function("overlay-delta-1k-ops", |b| {
        b.iter(|| {
            let mut delta = OverlayDelta::new();
            for i in 0..1_000u32 {
                let (u, v) = (NodeId(i % 97), NodeId((i * 13 + 1) % 97));
                if u == v {
                    continue;
                }
                if i % 3 == 0 {
                    delta.add_edge(u, v);
                } else {
                    delta.remove_edge(u, v);
                }
            }
            std::hint::black_box(delta.num_removed() + delta.num_added())
        })
    });

    group.finish();
}

/// The ISSUE 2 satellite benchmark: the `CachedClient` hot path is a
/// dense `Vec`-indexed slot-map lookup; the baseline is the
/// `HashMap<NodeId, QueryResponse>` layout it replaced. Both serve the
/// same fully-warmed 650-node cache and the same cyclic lookup pattern.
fn bench_cache_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/cache");
    group.sample_size(50);
    group.measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Elements(4_096));

    let graph = mto_bench::mini_epinions_graph(40);
    let n = graph.num_nodes() as u32;
    let mut client = CachedClient::new(OsnService::with_defaults(&graph));
    for v in 0..n {
        client.query(NodeId(v)).unwrap();
    }
    let baseline: HashMap<NodeId, QueryResponse> =
        (0..n).map(|v| (NodeId(v), client.cached(NodeId(v)).unwrap().clone())).collect();

    group.bench_function("slotmap-cached-degree-4k", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..4_096u32 {
                let v = NodeId((i.wrapping_mul(2_654_435_761)) % n);
                acc += client.known_degree(std::hint::black_box(v)).unwrap();
            }
            std::hint::black_box(acc)
        })
    });

    group.bench_function("hashmap-baseline-degree-4k", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..4_096u32 {
                let v = NodeId((i.wrapping_mul(2_654_435_761)) % n);
                acc += baseline.get(&std::hint::black_box(v)).unwrap().neighbors.len();
            }
            std::hint::black_box(acc)
        })
    });

    group.finish();
}

fn bench_history_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/history-codec");
    group.sample_size(30);
    group.measurement_time(Duration::from_secs(2));

    let graph = mto_bench::mini_epinions_graph(40);
    let mut client = CachedClient::new(OsnService::with_defaults(&graph));
    for v in 0..graph.num_nodes() as u32 {
        client.query(NodeId(v)).unwrap();
    }
    let store = HistoryStore::from_client(&client);
    let encoded = store.encode();
    group.throughput(Throughput::Bytes(encoded.len() as u64));

    group.bench_function("encode-650-node-store", |b| {
        b.iter(|| std::hint::black_box(store.encode().len()))
    });
    group.bench_function("decode-650-node-store", |b| {
        b.iter(|| std::hint::black_box(HistoryStore::decode(&encoded).unwrap().num_responses()))
    });

    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/merge");
    group.sample_size(30);
    group.measurement_time(Duration::from_secs(2));

    // Two overlapping crawls of the mini-Epinions stand-in: the shape
    // the fleet's epoch gossip folds at every barrier.
    let graph = mto_bench::mini_epinions_graph(40);
    let n = graph.num_nodes() as u32;
    let crawl = |lo: u32, hi: u32| {
        let mut client = CachedClient::new(OsnService::with_defaults(&graph));
        for v in lo..hi {
            client.query(NodeId(v)).unwrap();
        }
        HistoryStore::from_client(&client)
    };
    let a = crawl(0, 2 * n / 3);
    let b = crawl(n / 3, n);
    group.throughput(Throughput::Elements((a.num_responses() + b.num_responses()) as u64));

    group.bench_function("merge-two-overlapping-crawls", |bch| {
        bch.iter(|| {
            let mut acc = a.clone();
            let outcome = acc.merge(&b).unwrap();
            std::hint::black_box((acc.num_responses(), outcome.merged_responses))
        })
    });
    group.bench_function("fold-four-shard-gossip-round", |bch| {
        let shards: Vec<HistoryStore> =
            (0..4).map(|s| crawl(s * n / 6, s * n / 6 + n / 2)).collect();
        bch.iter(|| {
            let mut union = HistoryStore::default();
            let mut conflicts = 0u64;
            for shard in &shards {
                conflicts += union.merge(shard).unwrap().conflicts;
            }
            std::hint::black_box((union.num_responses(), conflicts))
        })
    });

    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    use mto_net::demand::{record_traces, PoolJob, WalkerSpec};
    use mto_net::driver::{replay_pool, DriverConfig, DriverMode};
    use mto_net::latency::LatencyModel;
    use mto_net::pipeline::{PipelineConfig, QueryPipeline};

    let mut group = c.benchmark_group("micro/pipeline");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));

    let graph = mto_bench::mini_epinions_graph(40);
    let n = graph.num_nodes() as u32;

    // Raw engine throughput: submit + drain one request per node.
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("submit-drain-650", |b| {
        b.iter(|| {
            let mut p = QueryPipeline::new(
                OsnService::with_defaults(&graph),
                PipelineConfig {
                    max_in_flight: 8,
                    latency: LatencyModel::LogNormal { median_secs: 0.28, sigma: 0.4 },
                    ..Default::default()
                },
            );
            for v in 0..n {
                p.submit(NodeId(v));
            }
            std::hint::black_box(p.drain().len())
        })
    });

    // The walk-not-wait replay over a 4-walker pool (traces recorded
    // once outside the measurement — recording is an oracle pass whose
    // cost is amortized across regimes in real use).
    group.throughput(Throughput::Elements(4 * 100));
    group.bench_function("walk-not-wait-replay-4x100", |b| {
        let jobs: Vec<PoolJob> = (0..4u64)
            .map(|i| PoolJob {
                spec: WalkerSpec::Mto(MtoConfig { seed: 20 + i, ..Default::default() }),
                start: NodeId((i as u32 * n) / 4),
                steps: 100,
            })
            .collect();
        let config = DriverConfig {
            mode: DriverMode::WalkNotWait,
            pipeline: PipelineConfig {
                max_in_flight: 8,
                latency: LatencyModel::LogNormal { median_secs: 0.28, sigma: 0.4 },
                ..Default::default()
            },
            unique_query_budget: None,
        };
        let service = OsnService::with_defaults(&graph);
        let traces = record_traces(&service, &jobs).unwrap();
        b.iter(|| {
            let report = replay_pool(&service, &traces, &config).unwrap();
            std::hint::black_box(report.virtual_secs)
        })
    });

    group.finish();
}

fn bench_spectral(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/spectral");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));

    let barbell = paper_barbell();

    group.bench_function("jacobi-full-spectrum-n22", |b| {
        let s = symmetrized_transition(&barbell);
        b.iter(|| std::hint::black_box(jacobi_eigen(&s, JacobiOptions::default()).slem()))
    });

    let graph = mto_bench::mini_epinions_graph(40);
    group.bench_function("power-iteration-slem-n650", |b| {
        b.iter(|| {
            std::hint::black_box(
                slem_power_iteration(&graph, PowerIterationOptions::default()).slem,
            )
        })
    });

    group.bench_function("sweep-conductance-n650", |b| {
        b.iter(|| std::hint::black_box(mto_spectral::conductance::sweep_conductance(&graph).0))
    });

    group.finish();
}

/// The QoS hot path: admission-time cost prediction over a warm store,
/// and a full ledger split → charge → rebalance barrier cycle — both run
/// at every fleet epoch, so they must stay cheap next to the walking.
fn bench_qos(c: &mut Criterion) {
    use mto_qos::{plan_epoch, BudgetLedger, CostPredictor, LiveJob, PlannerConfig};
    use mto_serve::scheduler::SchedulePolicy;
    use mto_serve::session::{AlgoSpec, JobSpec};

    let mut group = c.benchmark_group("micro/qos");
    group.sample_size(50);
    group.measurement_time(Duration::from_secs(2));

    // A warm store over the mini-Epinions graph for coverage lookups.
    let graph = mto_bench::mini_epinions_graph(40);
    let mut client = CachedClient::new(OsnService::with_defaults(&graph));
    for v in 0..(graph.num_nodes() as u32 / 2) {
        client.query(NodeId(v)).expect("node exists");
    }
    let store = HistoryStore::from_client(&client);
    let jobs: Vec<JobSpec> = (0..64)
        .map(|i: u32| JobSpec {
            id: format!("j{i}"),
            algo: AlgoSpec::Mto(MtoConfig { seed: i as u64 + 1, ..Default::default() }),
            start: NodeId(i % graph.num_nodes() as u32),
            step_budget: 1_000 + i as usize * 17,
            deadline: (i % 3 == 0).then_some(30.0 + i as f64),
            ess: None,
        })
        .collect();

    group.throughput(Throughput::Elements(jobs.len() as u64));
    group.bench_function("predict-64-jobs-warm", |b| {
        let predictor = CostPredictor::new(Some(graph.num_nodes()));
        b.iter(|| {
            let total: u64 = jobs.iter().map(|j| predictor.predict_queries(j, Some(&store))).sum();
            std::hint::black_box(total)
        })
    });

    let predictor = CostPredictor::new(Some(graph.num_nodes()));
    let predicted: Vec<u64> = jobs.iter().map(|j| predictor.predict_queries(j, None)).collect();
    group.bench_function("ledger-split-charge-rebalance-64", |b| {
        b.iter(|| {
            let mut ledger = BudgetLedger::split(50_000, &predicted);
            for (i, &p) in predicted.iter().enumerate() {
                ledger.charge(i, p / 2 + i as u64);
            }
            let claims: Vec<(usize, u64)> = (0..8).map(|i| (i * 7, 40)).collect();
            std::hint::black_box(ledger.rebalance(&[1, 3, 5], &claims))
        })
    });

    let live: Vec<LiveJob> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| LiveJob {
            remaining_steps: j.step_budget / 2,
            deadline: j.deadline,
            starved_epochs: (i % 6) as u32,
            suspended: i % 11 == 0,
        })
        .collect();
    group.bench_function("edf-plan-epoch-64", |b| {
        let config = PlannerConfig { quantum: 64 };
        b.iter(|| {
            std::hint::black_box(plan_epoch(SchedulePolicy::EarliestDeadlineFirst, &config, &live))
        })
    });
    group.finish();
}

/// The observability primitives, one at a time: what a single counter
/// bump, histogram record, span enter/exit, and disabled-sink check
/// cost. These are the per-event prices behind the BENCH_7 claim that
/// instrumentation is hot-path-safe.
fn bench_obs(c: &mut Criterion) {
    use mto_obs::{Histogram, MetricsRegistry, TraceSink};

    let mut group = c.benchmark_group("micro/obs");
    group.sample_size(50);
    group.measurement_time(Duration::from_secs(2));
    const OPS: usize = 1_024;
    group.throughput(Throughput::Elements(OPS as u64));

    group.bench_function("counter-bump-1k", |b| {
        let mut reg = MetricsRegistry::new();
        b.iter(|| {
            for i in 0..OPS as u64 {
                reg.inc("steps", i & 7);
            }
            std::hint::black_box(reg.counter("steps"))
        })
    });

    group.bench_function("histogram-record-1k", |b| {
        let mut hist = Histogram::new();
        b.iter(|| {
            for i in 0..OPS as u64 {
                hist.record(i.wrapping_mul(2_654_435_761) & 0xFFFF);
            }
            std::hint::black_box(hist.count())
        })
    });

    // Span pairs on a fresh sink each iteration: the sink grows by one
    // record per event, so reuse across iterations would measure a
    // reallocating Vec, not the enter/exit path.
    group.bench_function("span-enter-exit-1k", |b| {
        b.iter(|| {
            let mut sink = TraceSink::new();
            for i in 0..(OPS as u64 / 2) {
                sink.enter(i, "span");
                sink.exit(i, 1);
            }
            std::hint::black_box(sink.len())
        })
    });

    // The disabled configuration every hot path actually runs: an
    // `Option<&mut TraceSink>` that is `None`, checked per event.
    group.bench_function("no-op-sink-1k", |b| {
        let mut sink: Option<TraceSink> = None;
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..OPS as u64 {
                if let Some(s) = sink.as_mut() {
                    s.point(i, "step", i);
                } else {
                    acc = acc.wrapping_add(i);
                }
            }
            std::hint::black_box(acc)
        })
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_walk_steps,
    bench_kernels,
    bench_cache_lookup,
    bench_history_codec,
    bench_merge,
    bench_pipeline,
    bench_qos,
    bench_obs,
    bench_spectral
);
criterion_main!(benches);
