//! The Route Allocator — the configurable *no-candidates action* (paper §3,
//! Figure 6b).
//!
//! "When no candidates can be found a no candidates action is performed in
//! order to escape from the impasse. A possible action can be the invocation
//! of the configurable Route Allocator, which tries to assign the current
//! DDG node to a convenient cluster, then routing the copies from/to its
//! predecessors/successors … where available paths are used to route a copy
//! from i to n passing through intermediate clusters."
//!
//! Routing reuses already-real arcs for free and only opens new arcs where
//! the destination still has a spare input port; each intermediate hop
//! executes a receive, so routed values pay issue slots along the way —
//! which the objective function then prices via `routed_hops`.
//!
//! Performance shape (bit-exact with the naive implementation): candidate
//! clusters are pre-screened against the static [`RouteTable`] (a flow whose
//! endpoints are statically too far can never be routed, whatever the port
//! state), each trial mutates the live state through a [`StateTxn`] journal
//! instead of cloning it, and the path search runs on thread-local
//! epoch-stamped scratch arrays instead of fresh hash maps per query. The
//! winning candidate is committed in place ([`route_assign_commit`]) — the
//! engine's rescue path performs zero state clones.

use crate::route_table::RouteTable;
use crate::state::{PartialState, SeeContext, StateTxn};
use hca_ddg::NodeId;
use hca_pg::PgNodeId;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Find the cheapest cluster for `n`, routing all its operand/result flows
/// through intermediate clusters where direct patterns are unavailable.
///
/// Clone-then-commit wrapper over [`route_assign_commit`] for callers that
/// need the input state kept; the engine's rescue path commits directly into
/// frontier states it is about to discard anyway and never clones.
pub fn route_assign(
    ctx: &SeeContext<'_>,
    rt: &RouteTable,
    st: &PartialState,
    n: NodeId,
    max_hops: usize,
) -> Option<PartialState> {
    let mut out = st.clone();
    route_assign_commit(ctx, rt, &mut out, n, max_hops).then_some(out)
}

/// [`route_assign`], committing the winning routing into `st` in place.
///
/// Trials run on the live state (journalled and rolled back bit-exactly);
/// the winning candidate is then re-routed deterministically and *kept
/// applied*. Returns `true` on success; on `false` (no cluster admits a
/// complete routing within `max_hops` intermediate hops) `st` is
/// bit-identical to on entry.
pub(crate) fn route_assign_commit(
    ctx: &SeeContext<'_>,
    rt: &RouteTable,
    st: &mut PartialState,
    n: NodeId,
    max_hops: usize,
) -> bool {
    let mut best: Option<(f64, PgNodeId)> = None;
    for c in ctx.pg.cluster_ids() {
        if !ctx.pg.node(c).rt.can_execute(ctx.ddg.node(n).op) {
            continue;
        }
        if !statically_routable(ctx, rt, st, n, c, max_hops) {
            rt.count_hit();
            continue;
        }
        if let Some(txn) = try_route_to(ctx, rt, st, n, c, max_hops) {
            let cost = st.cost;
            st.txn_rollback(ctx, txn);
            if best.is_none_or(|(b, _)| cost < b) {
                best = Some((cost, c));
            }
        }
    }
    let Some((_, c)) = best else {
        return false;
    };
    try_route_to(ctx, rt, st, n, c, max_hops)
        .expect("winning candidate re-routes deterministically");
    true
}

/// Static feasibility screen for placing `n` on `c`, answered entirely from
/// the [`RouteTable`] — no search, no state mutation. Exact in one
/// direction: a `false` here means [`try_route_to`] is *guaranteed* to fail
/// (the static hop distance lower-bounds every dynamic path: operands may
/// travel at most `max_hops + 1` arcs directly or `max_hops + 2` via a
/// relay, results at most `max_hops + 1`), so skipping the trial cannot
/// change the outcome. A `true` decides nothing — the trial still runs.
fn statically_routable(
    ctx: &SeeContext<'_>,
    rt: &RouteTable,
    st: &PartialState,
    n: NodeId,
    c: PgNodeId,
    max_hops: usize,
) -> bool {
    for (_, e) in ctx.ddg.pred_edges(n) {
        if ctx.ddg.node(e.src).op == hca_ddg::Opcode::Const {
            continue;
        }
        let Some(cp) = st.cluster_of(e.src) else {
            continue;
        };
        if cp == c {
            continue;
        }
        if rt.hop_dist(cp, c).is_none_or(|d| d as usize > max_hops + 2) {
            return false;
        }
    }
    for (_, e) in ctx.ddg.succ_edges(n) {
        if e.dst == n {
            continue;
        }
        let Some(cs) = st.cluster_of(e.dst) else {
            continue;
        };
        if cs == c || !ctx.pg.node(cs).kind.is_cluster() {
            continue;
        }
        if rt.hop_dist(c, cs).is_none_or(|d| d as usize > max_hops + 1) {
            return false;
        }
    }
    // Output wires take direct arcs only and must keep their unary fan-in —
    // known from the current in-neighbour sets, which operand routing cannot
    // touch (it only opens arcs into clusters).
    for &o in ctx.statics.outputs_carrying(n) {
        let would_be =
            st.in_neighbors.len(o.index()) + usize::from(!st.in_neighbors.contains(o.index(), c));
        if would_be > ctx.constraints.out_node_max_in as usize {
            return false;
        }
    }
    true
}

/// Attempt to place `n` on `c`, routing every flow — in place, journalled.
/// Tries per-operand routing first; when the target's ports cannot take one
/// wire per operand, falls back to funnelling all remote operands through a
/// single shared relay cluster (whose one output wire then carries them all
/// to `c`).
///
/// On success the mutations stay applied (with `st.cost` updated) and the
/// journal is returned for the caller to keep or roll back; on failure `st`
/// is already restored and `None` is returned.
fn try_route_to(
    ctx: &SeeContext<'_>,
    rt: &RouteTable,
    st: &mut PartialState,
    n: NodeId,
    c: PgNodeId,
    max_hops: usize,
) -> Option<StateTxn> {
    let mut txn = match route_operands_individually(ctx, rt, st, n, c, max_hops) {
        Some(txn) => txn,
        None => route_operands_via_relay(ctx, rt, st, n, c, max_hops)?,
    };

    // Route the result towards assigned consumers.
    for (_, e) in ctx.ddg.succ_edges(n) {
        if e.dst == n {
            continue;
        }
        let Some(cs) = st.cluster_of(e.dst) else {
            continue;
        };
        if cs == c || !ctx.pg.node(cs).kind.is_cluster() {
            continue;
        }
        if route_value(ctx, rt, st, n, c, cs, max_hops, &mut txn).is_none() {
            st.txn_rollback(ctx, txn);
            return None;
        }
    }
    // Output special nodes: direct arcs only (they model the glue wire); the
    // unary fan-in must hold.
    for &o in ctx.statics.outputs_carrying(n) {
        let would_be =
            st.in_neighbors.len(o.index()) + usize::from(!st.in_neighbors.contains(o.index(), c));
        if would_be > ctx.constraints.out_node_max_in as usize {
            st.txn_rollback(ctx, txn);
            return None;
        }
        st.add_copy_txn(ctx, n, c, o, &mut txn);
    }
    st.cost = crate::cost::objective(ctx, st);
    Some(txn)
}

/// Place `n` on `c` and route each remote operand on its own cheapest path.
/// Journalled; rolls `st` back itself on failure.
fn route_operands_individually(
    ctx: &SeeContext<'_>,
    rt: &RouteTable,
    st: &mut PartialState,
    n: NodeId,
    c: PgNodeId,
    max_hops: usize,
) -> Option<StateTxn> {
    let mut txn = st.txn_begin();
    st.place_txn(ctx, n, c, &mut txn);
    for (_, e) in ctx.ddg.pred_edges(n) {
        if ctx.ddg.node(e.src).op == hca_ddg::Opcode::Const {
            continue; // constants are preloaded, not transported
        }
        let Some(cp) = st.cluster_of(e.src) else {
            continue;
        };
        if cp == c {
            continue;
        }
        if route_value(ctx, rt, st, e.src, cp, c, max_hops, &mut txn).is_none() {
            st.txn_rollback(ctx, txn);
            return None;
        }
    }
    Some(txn)
}

/// Place `n` on `c` and funnel every remote operand through one relay
/// cluster: the relay receives each value (possibly multi-hop), re-emits
/// them on its single output wire, and `c` spends only one input port.
/// Journalled; each relay is trialled in place and rolled back, then the
/// cheapest one is re-applied and its journal returned.
fn route_operands_via_relay(
    ctx: &SeeContext<'_>,
    rt: &RouteTable,
    st: &mut PartialState,
    n: NodeId,
    c: PgNodeId,
    max_hops: usize,
) -> Option<StateTxn> {
    let preds: Vec<NodeId> = ctx
        .ddg
        .pred_edges(n)
        .filter_map(|(_, e)| {
            if ctx.ddg.node(e.src).op == hca_ddg::Opcode::Const {
                return None; // preloaded
            }
            let cp = st.cluster_of(e.src)?;
            (cp != c).then_some(e.src)
        })
        .collect();
    if preds.len() < 2 {
        return None; // a relay cannot beat the direct attempt
    }
    let mut best: Option<(f64, PgNodeId)> = None;
    for relay in ctx.pg.cluster_ids() {
        if relay == c || !ctx.statics.is_potential(relay, c) {
            continue;
        }
        let Some(txn) = try_relay(ctx, rt, st, n, c, relay, &preds, max_hops) else {
            continue;
        };
        let cost = st.cost;
        st.txn_rollback(ctx, txn);
        if best.is_none_or(|(b, _)| cost < b) {
            best = Some((cost, relay));
        }
    }
    let (_, relay) = best?;
    let txn = try_relay(ctx, rt, st, n, c, relay, &preds, max_hops)
        .expect("winning relay re-routes deterministically");
    Some(txn)
}

/// One relay trial: place `n` on `c`, funnel `preds` through `relay`, price
/// the result. Applied in place; `None` means `st` was already rolled back.
#[allow(clippy::too_many_arguments)]
fn try_relay(
    ctx: &SeeContext<'_>,
    rt: &RouteTable,
    st: &mut PartialState,
    n: NodeId,
    c: PgNodeId,
    relay: PgNodeId,
    preds: &[NodeId],
    max_hops: usize,
) -> Option<StateTxn> {
    let mut txn = st.txn_begin();
    st.place_txn(ctx, n, c, &mut txn);
    for &v in preds {
        let cp = st.cluster_of(v).expect("checked above");
        if cp == relay {
            continue; // already at the relay
        }
        if route_value(ctx, rt, st, v, cp, relay, max_hops, &mut txn).is_none() {
            st.txn_rollback(ctx, txn);
            return None;
        }
    }
    // Relay → target: one wire carries every funnelled value.
    for &v in preds {
        if !arc_admissible(ctx, st, v, relay, c) {
            st.txn_rollback(ctx, txn);
            return None;
        }
        st.add_copy_txn(ctx, v, relay, c, &mut txn);
        st.routed_hops += 1;
    }
    st.cost = crate::cost::objective(ctx, st);
    Some(txn)
}

/// Route value `v` from `src` to `dst` along potential arcs, preferring
/// already-real arcs, and apply the copies into `txn`. Fails when no
/// admissible path of at most `max_hops` intermediate clusters exists — the
/// caller must then roll back the transaction (partial segments of a failed
/// path stay journalled until it does).
#[allow(clippy::too_many_arguments)]
pub(crate) fn route_value(
    ctx: &SeeContext<'_>,
    rt: &RouteTable,
    work: &mut PartialState,
    v: NodeId,
    src: PgNodeId,
    dst: PgNodeId,
    max_hops: usize,
    txn: &mut StateTxn,
) -> Option<()> {
    let path = shortest_admissible_path(ctx, rt, work, v, src, dst, max_hops + 1)?;
    debug_assert!(path.len() >= 2);
    let extra_hops = (path.len() - 2) as u32;
    for w in path.windows(2) {
        let (a, b) = (w[0], w[1]);
        // Re-verify admission: earlier segments may have consumed the port.
        if !arc_admissible(ctx, work, v, a, b) {
            return None;
        }
        work.add_copy_txn(ctx, v, a, b, txn);
    }
    work.routed_hops += extra_hops;
    Some(())
}

/// Can value `v` be put on arc `a → b` right now?
fn arc_admissible(
    ctx: &SeeContext<'_>,
    st: &PartialState,
    v: NodeId,
    a: PgNodeId,
    b: PgNodeId,
) -> bool {
    if !ctx.statics.is_potential(a, b) {
        return false;
    }
    if st.copies.contains(a, b, v) {
        return true; // already there — free
    }
    if st.in_neighbors.contains(b.index(), a) {
        return true;
    }
    st.in_neighbors.len(b.index()) < ctx.constraints.max_in_neighbors as usize
}

/// Reusable per-thread search buffers for [`shortest_admissible_path`].
/// Epoch-stamping makes clearing O(1): a slot is valid only when its stamp
/// equals the current epoch, so "reset" is one increment (with a full wipe
/// on the u32 wrap).
#[derive(Default)]
struct Scratch {
    epoch: u32,
    stamp: Vec<u32>,
    parent: Vec<PgNodeId>,
    ports: Vec<usize>,
    hops: Vec<usize>,
    queue: VecDeque<PgNodeId>,
}

impl Scratch {
    fn reset(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.parent.resize(n, PgNodeId(0));
            self.ports.resize(n, 0);
            self.hops.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Cheapest admissible path `src → dst` (at most `max_edges` arcs).
/// Label-correcting search over the lexicographic cost `(new_ports, hops)`:
/// hops that reuse an already-configured arc are free port-wise, so the
/// router prefers piggybacking on existing connections over opening fresh
/// ones — that keeps scarce input ports for the flows that really need
/// them. Intermediate nodes must be real clusters — special nodes never
/// forward.
///
/// The static table answers the trivial cases without a search and prunes
/// successors that cannot reach `dst` at all; both are outcome-preserving
/// (see [`RouteTable`]). Note the hop *budget* is enforced only at
/// expansion time, exactly as in the original implementation — a static
/// `hops + dist > budget` cut would be unsound under lexicographic costs.
fn shortest_admissible_path(
    ctx: &SeeContext<'_>,
    rt: &RouteTable,
    st: &PartialState,
    v: NodeId,
    src: PgNodeId,
    dst: PgNodeId,
    max_edges: usize,
) -> Option<Vec<PgNodeId>> {
    if src == dst {
        rt.count_hit();
        return Some(vec![src]);
    }
    match rt.hop_dist(src, dst) {
        Some(d) if d as usize <= max_edges => {}
        _ => {
            // Statically unreachable or too far even on the unconstrained
            // graph: the dynamic search cannot do better.
            rt.count_hit();
            return None;
        }
    }
    // Fast path: an already-configured direct arc costs (0 new ports,
    // 1 hop), which is lexicographically unbeatable — every competing path
    // spends at least 2 hops at no fewer ports, and no other 1-hop path
    // exists. The static table plus one membership test answers the query
    // with the exact path the search would return.
    if max_edges >= 1
        && ctx.statics.is_potential(src, dst)
        && st.in_neighbors.contains(dst.index(), src)
        && arc_admissible(ctx, st, v, src, dst)
    {
        rt.count_hit();
        return Some(vec![src, dst]);
    }
    rt.count_bfs();
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let s = &mut *scratch;
        s.reset(rt.num_nodes());
        let e = s.epoch;
        s.stamp[src.index()] = e;
        s.ports[src.index()] = 0;
        s.hops[src.index()] = 0;
        s.queue.push_back(src);
        while let Some(cur) = s.queue.pop_front() {
            let (ports, hops) = (s.ports[cur.index()], s.hops[cur.index()]);
            if hops >= max_edges {
                continue;
            }
            for &next in ctx.pg.potential_succs(cur) {
                if next != dst && !ctx.pg.node(next).kind.is_cluster() {
                    continue;
                }
                if !rt.reachable(next, dst) {
                    continue; // dead branch: statically cut off from dst
                }
                if !arc_admissible(ctx, st, v, cur, next) {
                    continue;
                }
                let new_port = usize::from(!st.in_neighbors.contains(next.index(), cur));
                let cand = (ports + new_port, hops + 1);
                let i = next.index();
                if s.stamp[i] != e || cand < (s.ports[i], s.hops[i]) {
                    s.stamp[i] = e;
                    s.ports[i] = cand.0;
                    s.hops[i] = cand.1;
                    s.parent[i] = cur;
                    s.queue.push_back(next);
                }
            }
        }
        if s.stamp[dst.index()] != e {
            return None;
        }
        let mut path = vec![dst];
        let mut at = dst;
        while at != src {
            at = s.parent[at.index()];
            path.push(at);
        }
        path.reverse();
        Some(path)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignable::is_assignable;
    use crate::cost::CostWeights;
    use hca_arch::{Rcp, ResourceTable};
    use hca_ddg::{Ddg, DdgAnalysis, DdgBuilder, Opcode};
    use hca_pg::{ArchConstraints, Pg};

    fn mk_ctx<'a>(ddg: &'a Ddg, an: &'a DdgAnalysis, pg: &'a Pg, max_in: u32) -> SeeContext<'a> {
        SeeContext {
            ddg,
            analysis: an,
            pg,
            constraints: ArchConstraints {
                max_in_neighbors: max_in,
                max_out_neighbors: None,
                out_node_max_in: 1,
                copy_latency: 1,
            },
            weights: CostWeights::default(),
            issue_cap: None,
            statics: crate::statics::PgStatics::build(pg),
        }
    }

    /// Clone-based shim keeping the original test surface: route onto a
    /// fresh copy, return it on success.
    fn try_route_clone(
        ctx: &SeeContext<'_>,
        rt: &RouteTable,
        st: &PartialState,
        n: hca_ddg::NodeId,
        c: PgNodeId,
        max_hops: usize,
    ) -> Option<PartialState> {
        let mut work = st.clone();
        try_route_to(ctx, rt, &mut work, n, c, max_hops).map(|_| work)
    }

    /// The observable fields trials must restore (floats bit-for-bit).
    fn assert_logically_equal(a: &PartialState, b: &PartialState) {
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.copies, b.copies);
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.in_neighbors, b.in_neighbors);
        assert_eq!(a.out_neighbors, b.out_neighbors);
        assert_eq!(a.total_copies, b.total_copies);
        assert_eq!(a.routed_hops, b.routed_hops);
        assert_eq!(a.forwards, b.forwards);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    }

    #[test]
    fn routes_across_ring_when_direct_pattern_missing() {
        // RCP ring with reach 1: cluster 0 cannot reach cluster 2 directly.
        let rcp = Rcp::new(4, 1, 2, |_| true);
        let pg = Pg::from_rcp(&rcp);
        let rt = RouteTable::build(&pg);
        let mut b = DdgBuilder::default();
        let i = b.node(Opcode::Add);
        let n = b.node(Opcode::Add);
        b.flow(i, n);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let ctx = mk_ctx(&ddg, &an, &pg, 2);
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, i, PgNodeId(0));

        // Force the impasse: pretend the engine wants n on cluster 2.
        assert!(!is_assignable(&ctx, &st, n, PgNodeId(2)));
        let routed = try_route_clone(&ctx, &rt, &st, n, PgNodeId(2), 3).unwrap();
        // The value of i hops through 1 or 3.
        assert_eq!(routed.routed_hops, 1);
        let via1 = routed.arc_pressure(PgNodeId(0), PgNodeId(1)) == 1
            && routed.arc_pressure(PgNodeId(1), PgNodeId(2)) == 1;
        let via3 = routed.arc_pressure(PgNodeId(0), PgNodeId(3)) == 1
            && routed.arc_pressure(PgNodeId(3), PgNodeId(2)) == 1;
        assert!(via1 || via3);
    }

    #[test]
    fn route_assign_picks_direct_placement_when_cheaper() {
        let rcp = Rcp::new(4, 1, 2, |_| true);
        let pg = Pg::from_rcp(&rcp);
        let rt = RouteTable::build(&pg);
        let mut b = DdgBuilder::default();
        let i = b.node(Opcode::Add);
        let n = b.node(Opcode::Add);
        b.flow(i, n);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let ctx = mk_ctx(&ddg, &an, &pg, 2);
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, i, PgNodeId(0));
        let out = route_assign(&ctx, &rt, &st, n, 3).unwrap();
        // Same cluster as the operand: zero copies, zero hops.
        assert_eq!(out.cluster_of(n), Some(PgNodeId(0)));
        assert_eq!(out.total_copies, 0);
    }

    #[test]
    fn route_assign_trials_leave_input_state_untouched() {
        // The in-place trial machinery must hand back `st` bit-identical —
        // otherwise the beam's other candidates see phantom copies.
        let rcp = Rcp::new(6, 1, 2, |_| true);
        let pg = Pg::from_rcp(&rcp);
        let rt = RouteTable::build(&pg);
        let mut b = DdgBuilder::default();
        let i1 = b.node(Opcode::Add);
        let i2 = b.node(Opcode::Add);
        let n = b.node(Opcode::Add);
        let s = b.node(Opcode::Add);
        b.flow(i1, n);
        b.flow(i2, n);
        b.flow(n, s);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let ctx = mk_ctx(&ddg, &an, &pg, 2);
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, i1, PgNodeId(0));
        st.apply_assign(&ctx, i2, PgNodeId(1));
        st.apply_assign(&ctx, s, PgNodeId(3));
        let before = st.clone();
        let routed = route_assign(&ctx, &rt, &st, n, 3);
        assert!(routed.is_some());
        assert_logically_equal(&before, &st);
    }

    #[test]
    fn routing_respects_port_budget() {
        // Complete 3-cluster PG but max_in = 0: no routing can ever land.
        let pg = Pg::complete(3, ResourceTable::of_cns(4));
        let rt = RouteTable::build(&pg);
        let mut b = DdgBuilder::default();
        let i = b.node(Opcode::Add);
        let n = b.node(Opcode::Add);
        b.flow(i, n);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let ctx = mk_ctx(&ddg, &an, &pg, 0);
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, i, PgNodeId(0));
        // Only co-location works; any cross-cluster route fails.
        assert!(try_route_clone(&ctx, &rt, &st, n, PgNodeId(1), 3).is_none());
        let out = route_assign(&ctx, &rt, &st, n, 3).unwrap();
        assert_eq!(out.cluster_of(n), Some(PgNodeId(0)));
    }

    #[test]
    fn hop_limit_bounds_search() {
        // Line-of-sight ring, need 2 intermediate hops, allow only 1.
        let rcp = Rcp::new(6, 1, 2, |_| true);
        let pg = Pg::from_rcp(&rcp);
        let rt = RouteTable::build(&pg);
        let mut b = DdgBuilder::default();
        let i = b.node(Opcode::Add);
        let n = b.node(Opcode::Add);
        b.flow(i, n);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let ctx = mk_ctx(&ddg, &an, &pg, 2);
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, i, PgNodeId(0));
        assert!(try_route_clone(&ctx, &rt, &st, n, PgNodeId(3), 1).is_none());
        assert!(try_route_clone(&ctx, &rt, &st, n, PgNodeId(3), 2).is_some());
    }

    #[test]
    fn static_screen_rejects_before_any_search() {
        // Same shape as `hop_limit_bounds_search`, but watch the counters:
        // the infeasible budget must be rejected purely from the table.
        let rcp = Rcp::new(6, 1, 2, |_| true);
        let pg = Pg::from_rcp(&rcp);
        let rt = RouteTable::build(&pg);
        let mut b = DdgBuilder::default();
        let i = b.node(Opcode::Add);
        let n = b.node(Opcode::Add);
        b.flow(i, n);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let ctx = mk_ctx(&ddg, &an, &pg, 2);
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, i, PgNodeId(0));
        let _ = rt.take_counters();
        // dist(0, 3) = 3 on the reach-1 ring of 6 > max_hops(0) + 2.
        assert!(!statically_routable(&ctx, &rt, &st, n, PgNodeId(3), 0));
        assert!(try_route_clone(&ctx, &rt, &st, n, PgNodeId(3), 0).is_none());
        let (bfs, hits) = rt.take_counters();
        assert_eq!(bfs, 0, "the doomed trial must not reach the search");
        assert!(hits > 0, "the table must have answered");
    }

    #[test]
    fn routes_result_to_consumers() {
        let rcp = Rcp::new(4, 1, 2, |_| true);
        let pg = Pg::from_rcp(&rcp);
        let rt = RouteTable::build(&pg);
        let mut b = DdgBuilder::default();
        let n = b.node(Opcode::Add);
        let s = b.node(Opcode::Add);
        b.flow(n, s);
        let ddg = b.finish();
        let an = DdgAnalysis::compute(&ddg).unwrap();
        let ctx = mk_ctx(&ddg, &an, &pg, 2);
        let mut st = PartialState::initial(&ctx, &[]);
        st.apply_assign(&ctx, s, PgNodeId(2));
        let routed = try_route_clone(&ctx, &rt, &st, n, PgNodeId(0), 3).unwrap();
        assert_eq!(routed.routed_hops, 1);
        assert!(routed.total_copies >= 2); // two hops carry the value
    }
}
