//! Driver-level contract of the search-trace recorder: `run_hca_traced`
//! emits a consistent record stream for every Table-1 kernel, the trace
//! round-trips through the JSONL reader, and attaching a tracer changes
//! nothing about the run's outcome.

use hca_arch::DspFabric;
use hca_core::{run_hca_obs, run_hca_traced, HcaConfig};
use hca_obs::trace::{kind, FALLBACK_TIER};
use hca_obs::{Obs, SearchTracer, TraceRecord};
use std::collections::BTreeMap;

fn traced_records(ddg: &hca_ddg::Ddg) -> (hca_core::HcaResult, Vec<TraceRecord>) {
    let fabric = DspFabric::standard(8, 8, 8);
    let tracer = SearchTracer::enabled();
    let res = run_hca_traced(
        ddg,
        &fabric,
        &HcaConfig::default(),
        &Obs::disabled(),
        &tracer,
    )
    .expect("table1 kernel clusterises");
    (res, tracer.records())
}

#[test]
fn every_table1_kernel_emits_a_consistent_trace() {
    for kernel in hca_kernels::table1_kernels() {
        let (res, records) = traced_records(&kernel.ddg);
        assert!(!records.is_empty(), "{}: empty trace", kernel.name);

        // Partition by problem id.
        let mut subs: BTreeMap<&str, Vec<&TraceRecord>> = BTreeMap::new();
        for r in &records {
            subs.entry(r.problem.as_str()).or_default().push(r);
        }

        // Exactly one run-level MII record, and it matches the MII report.
        let mii: Vec<&TraceRecord> = records.iter().filter(|r| r.kind == kind::MII).collect();
        assert_eq!(mii.len(), 1, "{}", kernel.name);
        assert_eq!(mii[0].est_mii, res.mii.final_mii, "{}", kernel.name);
        assert_eq!(mii[0].mii_rec, res.mii.final_mii_rec, "{}", kernel.name);
        assert!(!mii[0].why.is_empty(), "{}", kernel.name);

        // One `sub` record per sub-problem the driver visited.
        let sub_count = records.iter().filter(|r| r.kind == kind::SUB).count();
        assert_eq!(sub_count, res.stats.subproblems, "{}", kernel.name);

        for (problem, recs) in &subs {
            if problem.is_empty() {
                continue; // run-level records
            }
            let solved: Vec<_> = recs.iter().filter(|r| r.kind == kind::SOLVED).collect();
            // Every visited sub-problem is solved exactly once, by a tier
            // or the fallback.
            assert_eq!(
                solved.len(),
                1,
                "{}/{problem}: one solved record per sub",
                kernel.name
            );
            for s in solved {
                // est_mii is the max of its recorded components (≥ 1 floor).
                let expect = s.mii_rec.max(s.mii_issue).max(s.mii_arc).max(1);
                assert_eq!(s.est_mii, expect, "{}/{problem}", kernel.name);
                assert!(
                    ["recurrence", "issue", "arc", "floor"].contains(&s.why.as_str()),
                    "{}/{problem}: binder {:?}",
                    kernel.name,
                    s.why
                );
                // The winning tier also appears as a successful tier record.
                assert!(
                    s.tier == FALLBACK_TIER
                        || recs
                            .iter()
                            .any(|r| r.kind == kind::TIER && r.tier == s.tier && r.ok),
                    "{}/{problem}: winner tier {} has no ok tier record",
                    kernel.name,
                    s.tier
                );
            }
            // Step records are stamped with the sub-problem scope.
            for r in recs.iter().filter(|r| r.kind == kind::STEP) {
                assert!(
                    r.tier < 5,
                    "{}/{problem}: step outside tier range",
                    kernel.name
                );
                assert!(r.beam >= 1, "{}/{problem}: empty beam", kernel.name);
            }
        }
    }
}

#[test]
fn tracer_attachment_does_not_change_the_result() {
    for kernel in hca_kernels::table1_kernels() {
        let fabric = DspFabric::standard(8, 8, 8);
        let plain = run_hca_obs(
            &kernel.ddg,
            &fabric,
            &HcaConfig::default(),
            &Obs::disabled(),
        )
        .expect("plain run");
        let (traced, _) = traced_records(&kernel.ddg);
        assert_eq!(plain.mii.final_mii, traced.mii.final_mii, "{}", kernel.name);
        assert_eq!(plain.placement, traced.placement, "{}", kernel.name);
        assert_eq!(plain.stats, traced.stats, "{}", kernel.name);
        assert_eq!(
            plain.final_program.route_nodes, traced.final_program.route_nodes,
            "{}",
            kernel.name
        );
    }
}

#[test]
fn trace_round_trips_through_jsonl() {
    let kernel = &hca_kernels::table1_kernels()[0];
    let (_, records) = traced_records(&kernel.ddg);
    let mut text = String::new();
    for r in &records {
        text.push_str(&serde_json::to_string(r).unwrap());
        text.push('\n');
    }
    let back = hca_obs::trace::read_jsonl(&text).unwrap();
    assert_eq!(back, records);
}
