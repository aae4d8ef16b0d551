//! Frontier deduplication and dominance pruning.
//!
//! The beam is represented *virtually* in the engine: a vector of distinct
//! [`PartialState`]s plus a slot vector mapping each beam position to its
//! distinct state. Bit-identical states then cost one scoring pass and one
//! materialisation instead of one per slot, while every per-slot statistic
//! and the stable sort/truncation boundaries of the original materialised
//! beam are reproduced exactly — the search outcome is bit-identical to the
//! naive engine by construction.
//!
//! This module provides the two passes:
//!
//! * [`content_merge`] — fold bit-identical states behind a scalar-key
//!   prefilter (cost bits, copy counts — free to read, and necessarily
//!   equal for identical states) and full field-by-field verification, so
//!   two different states can never merge;
//! * [`prune_dominated`] — drop states strictly dominated by a sibling.
//!   Dominance here is deliberately narrow: identical assignment and arc
//!   structure, no-worse on every path-dependent score scalar. Anything
//!   broader is unsound — copies are free-ride assets for future routing,
//!   the critical penalty depends on creation-time slack, and removing a
//!   state reshapes the beam for everyone else — so this only fires on
//!   states that differ in scoring history alone. It is still a heuristic
//!   (the pruned state's descendants vanish from the beam); the engine
//!   always runs it, and EXPERIMENTS.md P2 found it never fires on Table-1.
//!
//! Both passes run on signature-sorted dense index slices (no hashing of
//! state content), and both hand every folded/pruned state back through a
//! `recycle` vector so the engine's state arena can reuse its buffers.

use crate::state::PartialState;
use smallvec::SmallVec;

/// Free-to-read per-state key that is necessarily equal for bit-identical
/// states — the [`content_merge`] prefilter. Walking a state's maps to
/// hash them would cost more than the merge saves on frontiers with no
/// duplicates (the common case), so the prefilter reads only cached
/// scalars (cost bits, copy counts) plus the incrementally maintained
/// structure signature, and the full comparison runs just on key
/// collisions.
fn scalar_key(st: &PartialState) -> (u64, u64, u32, u32, u32, u64) {
    (
        st.struct_sig,
        st.cost.to_bits(),
        st.total_copies,
        st.recurrence_copies,
        st.routed_hops,
        st.critical_penalty.to_bits(),
    )
}

/// Full bit-exact equality (floats compared by bit pattern) — the collision
/// check behind the [`scalar_key`] prefilter. The structure signature leads
/// as a reject-only screen; everything is still verified field by field
/// behind a signature match, so collisions cannot merge different states.
pub(crate) fn states_identical(a: &PartialState, b: &PartialState) -> bool {
    a.struct_sig == b.struct_sig
        && a.cost.to_bits() == b.cost.to_bits()
        && a.total_copies == b.total_copies
        && a.routed_hops == b.routed_hops
        && a.recurrence_copies == b.recurrence_copies
        && a.critical_penalty.to_bits() == b.critical_penalty.to_bits()
        && a.loads == b.loads
        && a.forwards == b.forwards
        && a.assignment == b.assignment
        && a.copies == b.copies
        && a.in_neighbors == b.in_neighbors
        && a.out_neighbors == b.out_neighbors
}

/// Fold bit-identical entries of `states`, remapping `slots` (each entry an
/// index into `states`) onto the surviving representatives — always the
/// first occurrence, so the result is deterministic. Folded states are
/// pushed onto `recycle` for the arena instead of dropped. Returns how many
/// states were folded away.
pub(crate) fn content_merge(
    states: &mut Vec<PartialState>,
    slots: &mut [usize],
    recycle: &mut Vec<PartialState>,
) -> usize {
    let n = states.len();
    if n < 2 {
        return 0;
    }
    // Debug builds re-derive every signature from scratch: any mutator that
    // forgot to maintain `struct_sig` trips here long before a missed merge
    // or prune could silently cost performance.
    debug_assert!(
        states
            .iter()
            .all(|st| st.struct_sig == st.compute_struct_sig()),
        "struct_sig out of sync with state content"
    );
    // Sort indices by (scalar key, original index): possible duplicates now
    // sit in contiguous equal-key runs, in first-occurrence order — a dense
    // slice scan instead of hash-map bucketing. Each state is verified only
    // against the earlier keeps of its own run, and the earliest identical
    // state always wins, exactly as the bucketed fold did.
    let keys: Vec<_> = states.iter().map(scalar_key).collect();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_unstable_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
    let mut remap: Vec<usize> = (0..n).collect();
    let mut folded = 0usize;
    let mut run_start = 0;
    while run_start < n {
        let key = &keys[idx[run_start]];
        let mut run_end = run_start + 1;
        while run_end < n && keys[idx[run_end]] == *key {
            run_end += 1;
        }
        let run = &idx[run_start..run_end];
        run_start = run_end;
        if run.len() < 2 {
            continue;
        }
        let mut kept_in_run: SmallVec<[usize; 2]> = SmallVec::new();
        kept_in_run.push(run[0]);
        for &i in &run[1..] {
            let dup = kept_in_run
                .iter()
                .copied()
                .find(|&k| states_identical(&states[k], &states[i]));
            match dup {
                Some(k) => {
                    remap[i] = k;
                    folded += 1;
                }
                None => kept_in_run.push(i),
            }
        }
    }
    if folded == 0 {
        return 0;
    }
    let mut new_idx = vec![usize::MAX; n];
    let mut kept = 0usize;
    for (i, &r) in remap.iter().enumerate() {
        if r == i {
            new_idx[i] = kept;
            kept += 1;
        }
    }
    let old = std::mem::take(states);
    for (i, st) in old.into_iter().enumerate() {
        if new_idx[i] != usize::MAX {
            states.push(st);
        } else {
            recycle.push(st);
        }
    }
    for s in slots.iter_mut() {
        *s = new_idx[remap[*s]];
    }
    folded
}

/// Identical assignment/copy/port/load structure — the equality half of
/// dominance: both states offer future steps the exact same resources. The
/// incrementally maintained structure signature leads as a one-word reject
/// screen (structurally different siblings — the overwhelmingly common
/// case — fall out here); the maps are still compared field by field
/// behind a signature match, so a hash collision can never prune.
fn same_structure(a: &PartialState, b: &PartialState) -> bool {
    a.struct_sig == b.struct_sig
        && a.total_copies == b.total_copies
        && a.loads == b.loads
        && a.forwards == b.forwards
        && a.assignment == b.assignment
        && a.copies == b.copies
        && a.in_neighbors == b.in_neighbors
        && a.out_neighbors == b.out_neighbors
}

/// Componentwise no-worse path-dependent score scalars — the order half of
/// dominance.
fn scalars_no_worse(a: &PartialState, b: &PartialState) -> bool {
    a.mii_issue <= b.mii_issue
        && a.mii_arc <= b.mii_arc
        && a.recurrence_copies <= b.recurrence_copies
        && a.routed_hops <= b.routed_hops
        && a.util_sq_sum.total_cmp(&b.util_sq_sum).is_le()
        && a.critical_penalty.total_cmp(&b.critical_penalty).is_le()
        && a.cost.total_cmp(&b.cost).is_le()
}

/// Does `a` strictly dominate `b`? Requires identical assignment/copy/port
/// structure (so both states offer future steps the exact same resources)
/// and componentwise no-worse score scalars. Mutual domination is
/// impossible after [`content_merge`]: two-way `<=` on every compared field
/// means the states are bit-identical and would already have been folded.
#[cfg_attr(not(test), allow(dead_code))] // executable spec; the prune pass composes the two halves
pub(crate) fn dominates(a: &PartialState, b: &PartialState) -> bool {
    same_structure(a, b) && scalars_no_worse(a, b)
}

/// Remove every state dominated by some sibling, dropping its beam slots.
/// Pruned states are pushed onto `recycle` for the arena. Returns the
/// number of *slots* removed (the engine's virtual accounting).
///
/// Dominance needs identical structure, and identical structure implies an
/// identical structure signature — so candidate pairs only ever live inside
/// a run of equal signatures. Sorting indices by signature and working
/// run-by-run replaces the naive all-pairs scan, whose O(n²) loop overhead
/// alone (hundreds of distinct states per step on wide portfolio beams ×
/// one step per placed node) dominated the engine's wall clock. Within a
/// run, states partition into structural-equality classes (one full
/// comparison per state per class representative); the cheap scalar chain
/// then runs only among class members. The computed dominated set is
/// exactly the pairwise one: `dominates(j, i)` ⟺ same class ∧ scalar
/// no-worse — which state ends up in which run position cannot change it.
pub(crate) fn prune_dominated(
    states: &mut Vec<PartialState>,
    slots: &mut Vec<usize>,
    recycle: &mut Vec<PartialState>,
) -> usize {
    let n = states.len();
    if n < 2 {
        return 0;
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_unstable_by_key(|&i| states[i].struct_sig);
    let mut dominated = vec![false; n];
    let mut run_start = 0;
    while run_start < n {
        let sig = states[idx[run_start]].struct_sig;
        let mut run_end = run_start + 1;
        while run_end < n && states[idx[run_end]].struct_sig == sig {
            run_end += 1;
        }
        let run = &idx[run_start..run_end];
        run_start = run_end;
        if run.len() < 2 {
            continue;
        }
        // Structural-equality classes within the equal-sig run.
        let mut class_of = vec![usize::MAX; run.len()];
        let mut reps: Vec<usize> = Vec::new();
        for (a, &i) in run.iter().enumerate() {
            match reps
                .iter()
                .position(|&r| same_structure(&states[run[r]], &states[i]))
            {
                Some(k) => class_of[a] = k,
                None => {
                    class_of[a] = reps.len();
                    reps.push(a);
                }
            }
        }
        if reps.len() == run.len() {
            continue; // every class is a singleton — nothing is comparable
        }
        for a in 0..run.len() {
            for b in 0..run.len() {
                if a != b
                    && class_of[a] == class_of[b]
                    && scalars_no_worse(&states[run[b]], &states[run[a]])
                {
                    dominated[run[a]] = true;
                    break;
                }
            }
        }
    }
    if !dominated.iter().any(|&d| d) {
        return 0;
    }
    let mut new_idx = vec![usize::MAX; n];
    let mut kept = 0usize;
    for (i, &dom) in dominated.iter().enumerate() {
        if !dom {
            new_idx[i] = kept;
            kept += 1;
        }
    }
    let before = slots.len();
    slots.retain(|&di| !dominated[di]);
    let removed = before - slots.len();
    for s in slots.iter_mut() {
        *s = new_idx[*s];
    }
    let old = std::mem::take(states);
    for (i, st) in old.into_iter().enumerate() {
        if !dominated[i] {
            states.push(st);
        } else {
            recycle.push(st);
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostWeights;
    use crate::state::SeeContext;
    use hca_arch::ResourceTable;
    use hca_ddg::{DdgAnalysis, DdgBuilder, Opcode};
    use hca_pg::{ArchConstraints, Pg, PgNodeId};

    fn fixture() -> (hca_ddg::Ddg, Pg) {
        let mut b = DdgBuilder::default();
        let p = b.node(Opcode::Add);
        let q = b.node(Opcode::Add);
        b.flow(p, q);
        (b.finish(), Pg::complete(3, ResourceTable::of_cns(4)))
    }

    fn mk_ctx<'a>(ddg: &'a hca_ddg::Ddg, an: &'a DdgAnalysis, pg: &'a Pg) -> SeeContext<'a> {
        SeeContext {
            ddg,
            analysis: an,
            pg,
            constraints: ArchConstraints {
                max_in_neighbors: 4,
                max_out_neighbors: None,
                out_node_max_in: 1,
                copy_latency: 1,
            },
            weights: CostWeights::default(),
            issue_cap: None,
            statics: crate::statics::PgStatics::build(pg),
        }
    }

    #[test]
    fn identical_states_merge_different_states_do_not() {
        let (ddg, pg) = fixture();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let ctx = mk_ctx(&ddg, &an, &pg);
        let mut a = PartialState::initial(&ctx, &[]);
        a.apply_assign(&ctx, hca_ddg::NodeId(0), PgNodeId(0));
        let b = a.clone();
        let mut c = PartialState::initial(&ctx, &[]);
        c.apply_assign(&ctx, hca_ddg::NodeId(0), PgNodeId(1));

        assert_eq!(scalar_key(&a), scalar_key(&b));
        assert!(states_identical(&a, &b));
        assert!(!states_identical(&a, &c));

        let mut states = vec![a, b, c];
        let mut slots = vec![0usize, 1, 2];
        let mut recycle = Vec::new();
        let folded = content_merge(&mut states, &mut slots, &mut recycle);
        assert_eq!(folded, 1);
        assert_eq!(states.len(), 2);
        assert_eq!(slots, vec![0, 0, 1]);
        assert_eq!(recycle.len(), 1, "folded state handed to the arena");
    }

    #[test]
    fn equality_ignores_map_iteration_order() {
        // Build the same logical state along two different mutation orders:
        // the maps' internal layouts differ, the comparison must not care.
        let (ddg, pg) = fixture();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let ctx = mk_ctx(&ddg, &an, &pg);
        let (p, q) = (hca_ddg::NodeId(0), hca_ddg::NodeId(1));
        let mut a = PartialState::initial(&ctx, &[]);
        a.apply_assign(&ctx, p, PgNodeId(0));
        a.apply_assign(&ctx, q, PgNodeId(1));
        let mut b = PartialState::initial(&ctx, &[]);
        b.apply_assign(&ctx, q, PgNodeId(1));
        b.apply_assign(&ctx, p, PgNodeId(0));
        // Same logical content, but the costs were accumulated in different
        // orders — align the cached scalars before comparing.
        b.cost = a.cost;
        b.critical_penalty = a.critical_penalty;
        if states_identical(&a, &b) {
            assert_eq!(scalar_key(&a), scalar_key(&b));
            let mut states = vec![a, b];
            let mut slots = vec![0usize, 1];
            let mut recycle = Vec::new();
            assert_eq!(content_merge(&mut states, &mut slots, &mut recycle), 1);
        }
    }

    #[test]
    fn dominance_requires_equal_structure() {
        let (ddg, pg) = fixture();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let ctx = mk_ctx(&ddg, &an, &pg);
        let mut a = PartialState::initial(&ctx, &[]);
        a.apply_assign(&ctx, hca_ddg::NodeId(0), PgNodeId(0));
        // b: same structure, strictly worse path-dependent scalars.
        let mut b = a.clone();
        b.critical_penalty += 1.0;
        b.cost += 1.0;
        b.routed_hops += 2;
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
        // c: different placement — never comparable.
        let mut c = PartialState::initial(&ctx, &[]);
        c.apply_assign(&ctx, hca_ddg::NodeId(0), PgNodeId(1));
        assert!(!dominates(&a, &c));
        assert!(!dominates(&c, &a));

        let mut states = vec![a.clone(), b, c];
        let mut slots = vec![0usize, 1, 2, 1];
        let mut recycle = Vec::new();
        let removed = prune_dominated(&mut states, &mut slots, &mut recycle);
        assert_eq!(removed, 2, "both slots of the dominated state go");
        assert_eq!(states.len(), 2);
        assert_eq!(slots, vec![0, 1]);
        assert!(states_identical(&states[0], &a));
        assert_eq!(recycle.len(), 1, "pruned state handed to the arena");
    }
}
