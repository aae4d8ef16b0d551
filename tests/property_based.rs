//! Property-based tests over randomly generated loop bodies: for *any*
//! schedulable synthetic DDG, the whole pipeline must preserve its
//! invariants — legality of the clusterisation, soundness of the MII
//! bound, schedulability, and bit-exact execution.

use hca_repro::arch::DspFabric;
use hca_repro::hca::{run_hca, HcaConfig};
use hca_repro::kernels::synthetic::{generate, SyntheticSpec};
use hca_repro::sched::{modulo_schedule, KernelSchedule};
use hca_repro::sim::verify_execution;
use proptest::prelude::*;
use rand::SeedableRng;

fn spec_strategy() -> impl Strategy<Value = SyntheticSpec> {
    (
        8usize..80,
        2usize..12,
        0.0f64..0.6,
        0.0f64..0.4,
        0usize..3,
        any::<u64>(),
    )
        .prop_map(
            |(nodes, width, density, mem_ratio, accumulators, seed)| SyntheticSpec {
                nodes,
                width,
                density,
                mem_ratio,
                accumulators,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hca_is_legal_and_mii_sound_on_random_ddgs(spec in spec_strategy()) {
        let ddg = generate(&spec);
        let fabric = DspFabric::standard(8, 8, 8);
        let res = run_hca(&ddg, &fabric, &HcaConfig::default())
            .expect("synthetic DDGs always clusterise with the fallbacks");
        prop_assert!(res.is_legal(), "illegal: {:?}", res.coherency);
        prop_assert!(res.mii.final_mii >= res.mii.theoretical);
        prop_assert_eq!(res.placement.len(), ddg.num_nodes());
        // Per-CN issue load never exceeds the reported bound.
        let max_load = res.final_program.issue_load(&fabric).into_iter().max().unwrap_or(0);
        prop_assert!(max_load <= res.mii.final_mii);
    }

    #[test]
    fn scheduled_execution_matches_reference(seed in any::<u64>()) {
        let spec = SyntheticSpec {
            nodes: 40,
            width: 6,
            density: 0.3,
            mem_ratio: 0.2,
            accumulators: 2,
            seed,
        };
        let ddg = generate(&spec);
        let fabric = DspFabric::standard(8, 8, 8);
        let res = run_hca(&ddg, &fabric, &HcaConfig::default()).unwrap();
        prop_assume!(res.is_legal());
        let sched = modulo_schedule(&res.final_program, &fabric, res.mii.final_mii).unwrap();
        let folded = KernelSchedule::fold(&res.final_program, &fabric, &sched);
        let report = verify_execution(&ddg, &res.final_program, &fabric, &folded, 6)
            .expect("execution matches");
        prop_assert_eq!(report.trip, 6);
    }

    #[test]
    fn journal_roundtrip_survives_random_synthetic_ddgs(seed in any::<u64>()) {
        // The SoA state (flat arc table, contiguous load columns) must
        // unwind bit-exactly through the journal on arbitrary loop bodies,
        // not just the hand-built fixtures.
        let spec = SyntheticSpec {
            nodes: 24,
            width: 5,
            density: 0.3,
            mem_ratio: 0.2,
            accumulators: 1,
            seed,
        };
        let ddg = generate(&spec);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        hca_repro::check::journal::journal_roundtrip_check(&ddg, 4, &mut rng)
            .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn mii_rec_invariant_under_node_relabelling(seed in any::<u64>()) {
        // MIIRec depends only on cycle structure: generating the same graph
        // twice must agree, and adding an isolated node never changes it.
        let spec = SyntheticSpec { nodes: 30, seed, ..SyntheticSpec::default() };
        let g1 = generate(&spec);
        let g2 = generate(&spec);
        let m1 = hca_repro::ddg::analysis::mii_rec(&g1).unwrap();
        prop_assert_eq!(m1, hca_repro::ddg::analysis::mii_rec(&g2).unwrap());
        let mut g3 = g1.clone();
        g3.add_node(hca_repro::ddg::Opcode::Const, None);
        prop_assert_eq!(m1, hca_repro::ddg::analysis::mii_rec(&g3).unwrap());
    }
}

/// The mutation-free scorer against its journalled oracle over 200 fixed
/// synthetic seeds: for every (state, node, candidate) the accept/reject
/// decision must equal `assignable_dynamic`, and every accepted score must
/// be bit-identical to `apply_assign_logged` → `cost` → `undo_assign` —
/// under default weights, `copies_only`, and non-finite weights (the `1e12`
/// cost-clamp path). The candidate filter must produce the same survivors
/// in the same order from either push order, including under a degenerate
/// NaN margin.
#[test]
fn scalar_scorer_bit_equals_apply_read_undo_on_200_seeds() {
    use hca_repro::arch::ResourceTable;
    use hca_repro::ddg::DdgAnalysis;
    use hca_repro::pg::{ArchConstraints, Pg, PgNodeId};
    use hca_repro::see::assignable::assignable_dynamic;
    use hca_repro::see::filters::CandidateFilter;
    use hca_repro::see::{
        node_view, score_if_assignable, CandList, CostWeights, PartialState, SeeContext,
    };

    let mut scored_total = 0usize;
    for seed in 0..200u64 {
        let spec = SyntheticSpec {
            nodes: 12 + (seed % 30) as usize,
            width: 4,
            density: 0.3,
            mem_ratio: 0.2,
            accumulators: (seed % 3) as usize,
            seed,
        };
        let ddg = generate(&spec);
        let analysis = DdgAnalysis::compute(&ddg).expect("synthetic DDGs analysable");
        let clusters = 3 + (seed % 7) as usize;
        let pg = Pg::complete(clusters, ResourceTable::of_cns(4));
        let weights = match seed % 5 {
            0 => CostWeights {
                critical: f64::INFINITY,
                ..CostWeights::default()
            },
            1 => CostWeights::copies_only(),
            _ => CostWeights::default(),
        };
        let ctx = SeeContext {
            ddg: &ddg,
            analysis: &analysis,
            pg: &pg,
            constraints: ArchConstraints {
                max_in_neighbors: 2 + (seed % 3) as u32,
                max_out_neighbors: None,
                out_node_max_in: 1,
                copy_latency: 1,
            },
            weights,
            issue_cap: (seed % 2 == 0).then_some(3),
            statics: hca_repro::see::statics::PgStatics::build(&pg),
        };
        let order: Vec<_> = ddg.node_ids().collect();
        let mut st = PartialState::initial(&ctx, &order);
        for &n in &order {
            let view = node_view(&ctx, &st, n);
            let mut cands = CandList::new();
            for c in view.candidates() {
                let scored = score_if_assignable(&ctx, &st, &view, n, c);
                assert_eq!(
                    scored.is_some(),
                    assignable_dynamic(&ctx, &st, &view, n, c),
                    "seed {seed}: screen diverges for {n:?} @ {c:?}"
                );
                let Some(cost) = scored else { continue };
                let before = st.cost.to_bits();
                let undo = st.apply_assign_logged(&ctx, n, c);
                assert_eq!(
                    cost.to_bits(),
                    st.cost.to_bits(),
                    "seed {seed}: score diverges from apply for {n:?} @ {c:?}"
                );
                st.undo_assign(&ctx, undo);
                assert_eq!(before, st.cost.to_bits(), "seed {seed}: undo drifted");
                cands.push((c, cost));
            }
            scored_total += cands.len();
            // The filter's total (cost, cluster) sort must make its output
            // independent of push order — even when a NaN margin disables
            // margin pruning entirely.
            let filter = CandidateFilter {
                branch_factor: 3,
                margin: if seed % 4 == 0 { f64::NAN } else { 8.0 },
            };
            let key = |v: &CandList| -> Vec<(PgNodeId, u64)> {
                v.iter().map(|&(c, x)| (c, x.to_bits())).collect()
            };
            let mut fwd = cands.clone();
            filter.apply(&mut fwd);
            let mut rev: CandList = cands.iter().rev().copied().collect();
            filter.apply(&mut rev);
            assert_eq!(
                key(&fwd),
                key(&rev),
                "seed {seed}: filtered survivors diverge for {n:?}"
            );
            if let Some(&(c, _)) = fwd.first() {
                st.apply_assign(&ctx, n, c);
            }
        }
    }
    assert!(scored_total > 0, "the sweep never scored a candidate");
}

/// A deterministic ≥100-seed floor under the proptest exploration above:
/// the journal round-trip must hold on every one of these synthetic loop
/// bodies regardless of how the proptest config is tuned.
#[test]
fn journal_roundtrip_holds_on_100_fixed_seeds() {
    for seed in 0..100u64 {
        let spec = SyntheticSpec {
            nodes: 18,
            width: 4,
            density: 0.3,
            mem_ratio: 0.2,
            accumulators: 1,
            seed,
        };
        let ddg = generate(&spec);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        hca_repro::check::journal::journal_roundtrip_check(&ddg, 4, &mut rng)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}
