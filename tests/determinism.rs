//! Thread-count invariance of the whole pipeline.
//!
//! The `hca-par` pool guarantees results are merged in input order, and the
//! driver's merge logic is written so scheduling decides only *who*
//! computes, never *what* comes out. These tests pin that contract on every
//! shipped path — the default config, the 5-variant portfolio `hca table1`
//! runs, and the exact-small bound-exit path: runs at 1, 2 and 5 workers
//! must agree on every assignment, every copy primitive, the final MII,
//! the search statistics and every work counter (timing excluded —
//! wall-clock is the one thing allowed to differ).

use hca_repro::arch::DspFabric;
use hca_repro::hca::{
    run_hca, run_hca_obs, run_hca_portfolio_obs, HcaConfig, HcaResult, PortfolioMode,
};
use hca_repro::see::{See, SeeConfig};

/// Serialises tests in this file: the thread override is process-global.
static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The shipped compile paths of the Table-1 pipeline.
#[derive(Clone, Copy, Debug)]
enum Pipeline {
    Default,
    Portfolio,
    ExactSmall,
}

/// Every non-timing work counter (and histogram bucket) of `res`'s
/// metrics, in name order.
fn work_counters(res: &HcaResult) -> Vec<(String, Vec<u64>)> {
    let m = res.metrics.as_ref().expect("enabled observer snapshots");
    let counted = |name: &str| {
        ["see.", "mapper.", "driver.", "portfolio."]
            .iter()
            .any(|p| name.starts_with(p))
            && !name.ends_with("_us")
            && !name.ends_with("_ms")
            && !name.contains("step_time")
    };
    let counters = m
        .counters
        .iter()
        .filter(|c| counted(&c.name))
        .map(|c| (c.name.clone(), vec![c.value]));
    let histograms = m
        .histograms
        .iter()
        .filter(|h| counted(&h.name))
        .map(|h| (h.name.clone(), h.buckets.clone()));
    counters.chain(histograms).collect()
}

/// Run `path` on every Table-1 kernel at a given pool width, each under a
/// fresh enabled observer.
fn run_table1(path: Pipeline, threads: usize) -> Vec<(&'static str, HcaResult)> {
    hca_par::set_thread_override(Some(threads));
    let fabric = DspFabric::standard(8, 8, 8);
    let out = hca_repro::kernels::table1_kernels()
        .into_iter()
        .map(|kernel| {
            let obs = hca_obs::Obs::enabled();
            let res = match path {
                Pipeline::Default => run_hca_obs(&kernel.ddg, &fabric, &HcaConfig::default(), &obs),
                Pipeline::Portfolio => run_hca_portfolio_obs(&kernel.ddg, &fabric, &obs),
                Pipeline::ExactSmall => {
                    let config = HcaConfig {
                        portfolio: PortfolioMode::ExactSmall,
                        ..HcaConfig::default()
                    };
                    run_hca_obs(&kernel.ddg, &fabric, &config, &obs)
                }
            }
            .unwrap_or_else(|e| panic!("{path:?} {}: {e}", kernel.name));
            (kernel.name, res)
        })
        .collect();
    hca_par::set_thread_override(None);
    out
}

#[test]
fn table1_pipeline_is_thread_count_invariant() {
    let _g = OVERRIDE_LOCK.lock().unwrap();
    for path in [Pipeline::Default, Pipeline::Portfolio, Pipeline::ExactSmall] {
        let seq = run_table1(path, 1);
        for threads in [2, 5] {
            let par = run_table1(path, threads);
            for ((name, a), (_, b)) in seq.iter().zip(par.iter()) {
                let at = format!("{path:?} {name} @ {threads} threads");
                assert_eq!(a.placement, b.placement, "{at}: placements diverge");
                assert_eq!(a.mii, b.mii, "{at}: MII reports diverge");
                assert_eq!(a.stats, b.stats, "{at}: run statistics diverge");
                assert_eq!(
                    a.final_program.placement, b.final_program.placement,
                    "{at}: final-program placements diverge"
                );
                assert_eq!(
                    a.final_program.recv_nodes, b.final_program.recv_nodes,
                    "{at}: copy (recv) primitives diverge"
                );
                assert_eq!(
                    a.final_program.route_nodes, b.final_program.route_nodes,
                    "{at}: route primitives diverge"
                );
                assert_eq!(
                    work_counters(a),
                    work_counters(b),
                    "{at}: work counters diverge"
                );
                assert!(a.is_legal(), "{path:?} {name}: sequential run illegal");
                assert!(b.is_legal(), "{at}: parallel run illegal");
            }
        }
    }
}

#[test]
fn see_stats_invariant_holds_at_every_thread_count() {
    // A SEE run is single-threaded whatever the pool width (the pool
    // parallelises ladder tiers and sibling sub-problems above it), so
    // this pins its accounting invariants on one run per kernel.
    use hca_repro::arch::ResourceTable;
    use hca_repro::ddg::analysis::DdgAnalysis;
    use hca_repro::pg::{ArchConstraints, Pg};

    let constraints = ArchConstraints {
        max_in_neighbors: 4,
        max_out_neighbors: None,
        out_node_max_in: 1,
        copy_latency: 1,
    };
    for kernel in hca_repro::kernels::table1_kernels() {
        let analysis = DdgAnalysis::compute(&kernel.ddg).unwrap();
        let pg = Pg::complete(8, ResourceTable::of_cns(8));
        let see = See::new(
            &kernel.ddg,
            &analysis,
            &pg,
            constraints,
            SeeConfig::default(),
        );
        let outcome = see
            .run(None)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        // Every scored candidate is either pruned or survives into a
        // beam — the delta-state rework must not break this accounting.
        // (`beam_occupancy_sum` is the exact running total; the vector
        // is a bounded sample of it.)
        assert_eq!(
            outcome.stats.states_explored,
            outcome.stats.states_pruned + outcome.stats.beam_occupancy_sum,
            "{}: explored != pruned + Σ occupancy",
            kernel.name
        );
        // The scorer is mutation-free: reintroducing a per-candidate state
        // clone in the hot loop must fail here, not show up as a perf cliff.
        assert_eq!(
            outcome.stats.state_clones, 0,
            "{}: trial clones in the hot loop",
            kernel.name
        );
    }
}

/// A result served by the `hca serve` daemon must be bit-identical to a
/// direct `run_hca` call — solved (cold) *and* answered from the request
/// cache (hot). The protocol digest
/// covers the sorted placement, the final program's placement, the full MII
/// report and the search statistics, so matching digests pin matching bits.
#[test]
fn served_results_match_direct_runs_cold_and_hot() {
    use hca_serve::{Client, CompileSpec, Server, ServerConfig};

    let _g = OVERRIDE_LOCK.lock().unwrap();
    let fabric = DspFabric::standard(8, 8, 8);

    // Direct reference digests, no daemon involved.
    let direct: Vec<(&'static str, String)> = hca_repro::kernels::table1_kernels()
        .into_iter()
        .map(|kernel| {
            let res = run_hca(&kernel.ddg, &fabric, &HcaConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
            let summary = hca_serve::summarise(kernel.name, &kernel.ddg, &res);
            (kernel.name, summary.digest)
        })
        .collect();

    let server = Server::bind(ServerConfig::default()).expect("bind serve daemon");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run().expect("serve daemon run"));
    let mut client = Client::connect_tcp(&addr).expect("connect to serve daemon");

    // Two passes: the first solves every job (all misses), the second
    // must be answered from the result cache — and both must equal the
    // direct run.
    for pass in ["cold", "hot"] {
        for (name, want_digest) in &direct {
            let served = client
                .compile(CompileSpec {
                    kernel: Some((*name).to_string()),
                    ..CompileSpec::default()
                })
                .unwrap_or_else(|e| panic!("{name} ({pass}): serve failed: {e}"));
            assert_eq!(
                &served.digest, want_digest,
                "{name}: {pass} served digest diverges from the direct run"
            );
            assert!(served.legal, "{name}: {pass} served result illegal");
        }
    }
    let stats = client.stats().expect("serve stats");
    let jobs = direct.len() as u64;
    assert_eq!(
        (stats.cache_misses, stats.cache_hits),
        (jobs, jobs),
        "cold pass must miss and hot pass hit the result cache: {stats:?}"
    );
    client.shutdown().expect("serve shutdown");
    daemon.join().expect("serve daemon thread");
}
