//! Criterion bench of the SEE candidate scorer: raw `score_if_assignable`
//! throughput (ns/candidate) on a fixed expansion snapshot of the 512-node
//! synthetic DAG. The snapshot is deterministic — half the nodes greedily
//! assigned, the other half's candidate views frozen — so every run scores
//! the exact same (state, node, candidate) set and the figure isolates the
//! scorer, not the workload.
//!
//! Besides the criterion samples, the derived ns/candidate figure lands in
//! `target/experiments/BENCH_scorer_throughput.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use hca_arch::ResourceTable;
use hca_ddg::DdgAnalysis;
use hca_pg::{ArchConstraints, Pg, PgNodeId};
use hca_see::{
    node_view, score_if_assignable, CandList, CostWeights, NodeView, PartialState, SeeContext,
};
use std::time::Instant;

/// Build the frozen expansion snapshot: a half-assigned 512-node state and
/// the candidate views of every remaining node. Assignments alternate over
/// the node order so an unassigned node typically sees *both* assigned
/// producers and assigned consumers — the mid-search shape whose consumer
/// terms dominate scoring — rather than the consumer-free fringe a
/// prefix-assigned state would expose.
fn snapshot(ctx: &SeeContext<'_>) -> (PartialState, Vec<(hca_ddg::NodeId, NodeView)>) {
    let order: Vec<_> = ctx.ddg.node_ids().collect();
    let mut st = PartialState::initial(ctx, &order);
    for &n in order.iter().step_by(2) {
        let view = node_view(ctx, &st, n);
        let mut best: Option<(PgNodeId, f64)> = None;
        for c in view.candidates() {
            if let Some(cost) = score_if_assignable(ctx, &st, &view, n, c) {
                if best.is_none_or(|(_, b)| cost < b) {
                    best = Some((c, cost));
                }
            }
        }
        if let Some((c, _)) = best {
            st.apply_assign(ctx, n, c);
        }
    }
    let views = order
        .iter()
        .skip(1)
        .step_by(2)
        .map(|&n| (n, node_view(ctx, &st, n)))
        .collect();
    (st, views)
}

/// One full scoring pass over the snapshot; returns the accepted count.
fn scalar_pass(
    ctx: &SeeContext<'_>,
    st: &PartialState,
    views: &[(hca_ddg::NodeId, NodeView)],
) -> usize {
    let mut pushed = 0;
    let mut cands = CandList::new();
    for (n, view) in views {
        cands.clear();
        for c in view.candidates() {
            if let Some(cost) = score_if_assignable(ctx, st, view, *n, c) {
                cands.push((c, cost));
            }
        }
        pushed += cands.len();
    }
    pushed
}

fn bench_scorer_throughput(c: &mut Criterion) {
    let (_, ddg) = hca_kernels::synthetic::scaling_family(&[512], 0xB5E7)
        .pop()
        .expect("scaling family produces the 512-node case");
    let analysis = DdgAnalysis::compute(&ddg).expect("synthetic DAG analysable");
    // Level-0 shape of the paper's 64-CN machine: 8 clusters of 8 CNs each.
    let pg = Pg::complete(8, ResourceTable::of_cns(8));
    let ctx = SeeContext {
        ddg: &ddg,
        analysis: &analysis,
        pg: &pg,
        constraints: ArchConstraints {
            max_in_neighbors: 4,
            max_out_neighbors: None,
            out_node_max_in: 1,
            copy_latency: 1,
        },
        weights: CostWeights::default(),
        issue_cap: None,
        statics: hca_see::statics::PgStatics::build(&pg),
    };
    let (st, views) = snapshot(&ctx);
    let total_cands: usize = views.iter().map(|(_, v)| v.candidates().count()).sum();
    assert!(total_cands > 0, "snapshot must expose candidates");

    // Derived ns/candidate figures from a fixed manual loop (criterion's
    // samples track the trend; these go to the experiment dump).
    const PASSES: u32 = 200;
    let t0 = Instant::now();
    let mut accepted = 0;
    for _ in 0..PASSES {
        accepted = scalar_pass(&ctx, &st, &views);
    }
    let scalar_ns = t0.elapsed().as_nanos() as f64 / f64::from(PASSES) / total_cands as f64;
    println!(
        "scorer_throughput: {total_cands} candidates/pass ({accepted} accepted), \
         {scalar_ns:.1} ns/cand"
    );
    #[derive(serde::Serialize)]
    struct Report {
        candidates_per_pass: usize,
        accepted_per_pass: usize,
        scalar_ns_per_candidate: f64,
    }
    hca_bench::dump_bench_json(
        "scorer_throughput",
        &Report {
            candidates_per_pass: total_cands,
            accepted_per_pass: accepted,
            scalar_ns_per_candidate: scalar_ns,
        },
    );

    let mut group = c.benchmark_group("scorer_throughput");
    group.sample_size(20);
    group.bench_function("scalar", |b| {
        b.iter(|| scalar_pass(&ctx, std::hint::black_box(&st), &views))
    });
    group.finish();
}

criterion_group!(benches, bench_scorer_throughput);
criterion_main!(benches);
