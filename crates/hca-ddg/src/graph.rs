//! DDG storage: nodes, dependence edges, adjacency queries.
//!
//! Storage layout: flat `Vec`s of nodes and edges plus per-node edge-id lists
//! (`SmallVec` — multimedia DDG nodes rarely exceed 4 neighbours). `NodeId`
//! and `EdgeId` are `u32` newtypes, so the hot search structures built on top
//! of the DDG stay compact (perf-book: smaller integers for indices).

use crate::analysis::DdgError;
use crate::op::Opcode;
use serde::{Deserialize, Serialize};
use smallvec::SmallVec;
use std::fmt;

/// Largest latency or iteration distance [`Ddg::validate`] accepts on one
/// edge. Real loop bodies stay in the tens of cycles; the bound keeps
/// `II · distance` and per-path sums far from `u32` overflow.
pub const MAX_EDGE_WEIGHT: u32 = 1 << 16;

/// Largest sum of every edge latency [`Ddg::validate`] accepts. Every path
/// and cycle latency sum — ASAP/height levels, the critical path, MIIRec —
/// is at most this total, which leaves half of `u32` for the MII terms the
/// cost model and the driver add on top.
pub const MAX_TOTAL_LATENCY: u64 = 1 << 31;

/// Index of a DDG node (instruction).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Index of a DDG edge (dependence).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// Usable as a plain array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Usable as a plain array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One instruction of the loop body.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DdgNode {
    /// Operation this node performs.
    pub op: Opcode,
    /// Optional human-readable label, e.g. `"sum[3]"`, kept for reports.
    pub name: Option<String>,
}

/// One data dependence.
///
/// `latency` is the number of cycles the consumer must be scheduled after the
/// producer; `distance` is the iteration distance (0 for intra-iteration flow,
/// ≥ 1 for loop-carried recurrences). Modulo-scheduling semantics:
/// `time(dst) ≥ time(src) + latency − II · distance`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DdgEdge {
    /// Producer node.
    pub src: NodeId,
    /// Consumer node.
    pub dst: NodeId,
    /// Producer-to-consumer latency in cycles.
    pub latency: u32,
    /// Iteration distance (0 = intra-iteration).
    pub distance: u32,
}

impl DdgEdge {
    /// True for loop-carried dependences.
    #[inline]
    pub fn is_loop_carried(self) -> bool {
        self.distance > 0
    }
}

/// The Data Dependency Graph of one loop body.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Ddg {
    nodes: Vec<DdgNode>,
    edges: Vec<DdgEdge>,
    succs: Vec<SmallVec<[EdgeId; 4]>>,
    preds: Vec<SmallVec<[EdgeId; 4]>>,
}

impl Ddg {
    /// Empty graph.
    pub fn new() -> Self {
        Ddg::default()
    }

    /// Append a node; returns its id.
    pub fn add_node(&mut self, op: Opcode, name: Option<String>) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("DDG larger than u32::MAX nodes"));
        self.nodes.push(DdgNode { op, name });
        self.succs.push(SmallVec::new());
        self.preds.push(SmallVec::new());
        id
    }

    /// Append a dependence edge; returns its id.
    ///
    /// # Panics
    /// If `src`/`dst` are out of range or the edge is an intra-iteration
    /// self-loop (`src == dst && distance == 0`), which can never be satisfied.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, latency: u32, distance: u32) -> EdgeId {
        assert!(src.index() < self.nodes.len(), "src {src} out of range");
        assert!(dst.index() < self.nodes.len(), "dst {dst} out of range");
        assert!(
            src != dst || distance > 0,
            "intra-iteration self-loop on {src} is unsatisfiable"
        );
        let id = EdgeId(u32::try_from(self.edges.len()).expect("DDG larger than u32::MAX edges"));
        self.edges.push(DdgEdge {
            src,
            dst,
            latency,
            distance,
        });
        self.succs[src.index()].push(id);
        self.preds[dst.index()].push(id);
        id
    }

    /// Check the structure a deserialised graph carries: every edge
    /// endpoint names a node, latencies and distances are at most
    /// [`MAX_EDGE_WEIGHT`] and latencies sum to at most
    /// [`MAX_TOTAL_LATENCY`], `succs`/`preds` have one row per node, every
    /// adjacency entry names an existing edge whose source (for `succs`) or
    /// destination (for `preds`) is that row's node, and every edge is
    /// listed exactly once on each side. Graphs built through
    /// [`add_edge`](Ddg::add_edge) with in-range weights always pass; a
    /// file or wire DDG must pass before any analysis indexes through it.
    pub fn validate(&self) -> Result<(), DdgError> {
        let n = self.nodes.len();
        let mut total_latency = 0u64;
        for (i, e) in self.edges.iter().enumerate() {
            if e.src.index() >= n || e.dst.index() >= n {
                return Err(DdgError::Malformed(format!(
                    "edge {i} ({} -> {}) names a node outside the {n}-node graph",
                    e.src, e.dst
                )));
            }
            if e.latency > MAX_EDGE_WEIGHT || e.distance > MAX_EDGE_WEIGHT {
                return Err(DdgError::Malformed(format!(
                    "edge {i} ({} -> {}) has latency {} and distance {}; \
                     each must be at most {MAX_EDGE_WEIGHT}",
                    e.src, e.dst, e.latency, e.distance
                )));
            }
            total_latency += u64::from(e.latency);
        }
        if total_latency > MAX_TOTAL_LATENCY {
            return Err(DdgError::Malformed(format!(
                "edge latencies sum to {total_latency}, above {MAX_TOTAL_LATENCY}"
            )));
        }
        for (side, rows) in [("succs", &self.succs), ("preds", &self.preds)] {
            if rows.len() != n {
                return Err(DdgError::Malformed(format!(
                    "`{side}` has {} rows for {n} nodes",
                    rows.len()
                )));
            }
            let mut listed = vec![0usize; self.edges.len()];
            for (v, row) in rows.iter().enumerate() {
                for &id in row {
                    let Some(e) = self.edges.get(id.index()) else {
                        return Err(DdgError::Malformed(format!(
                            "`{side}` of n{v} lists edge {}, which does not exist",
                            id.0
                        )));
                    };
                    let end = if side == "succs" { e.src } else { e.dst };
                    if end.index() != v {
                        return Err(DdgError::Malformed(format!(
                            "`{side}` of n{v} lists edge {} ({} -> {})",
                            id.0, e.src, e.dst
                        )));
                    }
                    listed[id.index()] += 1;
                }
            }
            // Entries were checked against their row above, so an edge's
            // count is its count in `succs[src]` (or `preds[dst]`).
            if let Some((i, (e, &k))) = self
                .edges
                .iter()
                .zip(&listed)
                .enumerate()
                .find(|(_, (_, &k))| k != 1)
            {
                let row = if side == "succs" { e.src } else { e.dst };
                return Err(DdgError::Malformed(format!(
                    "edge {i} ({} -> {}) is listed {k} times in `{side}` of {row}; \
                     expected once",
                    e.src, e.dst
                )));
            }
        }
        Ok(())
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Node payload.
    #[inline]
    pub fn node(&self, id: NodeId) -> &DdgNode {
        &self.nodes[id.index()]
    }

    /// Edge payload.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> DdgEdge {
        self.edges[id.index()]
    }

    /// All node ids in creation order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone + use<> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All edge ids in creation order.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + Clone + use<> {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// All edges.
    pub fn edges(&self) -> &[DdgEdge] {
        &self.edges
    }

    /// Outgoing edges of `n`.
    #[inline]
    pub fn succ_edges(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, DdgEdge)> + '_ {
        self.succs[n.index()]
            .iter()
            .map(|&e| (e, self.edges[e.index()]))
    }

    /// Incoming edges of `n`.
    #[inline]
    pub fn pred_edges(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, DdgEdge)> + '_ {
        self.preds[n.index()]
            .iter()
            .map(|&e| (e, self.edges[e.index()]))
    }

    /// Successor nodes (with multiplicity) of `n`.
    pub fn succs(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.succ_edges(n).map(|(_, e)| e.dst)
    }

    /// Predecessor nodes (with multiplicity) of `n`.
    pub fn preds(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.pred_edges(n).map(|(_, e)| e.src)
    }

    /// Out-degree of `n`.
    #[inline]
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.succs[n.index()].len()
    }

    /// In-degree of `n`.
    #[inline]
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.preds[n.index()].len()
    }

    /// Count of nodes whose opcode satisfies `pred`.
    pub fn count_ops(&self, pred: impl Fn(Opcode) -> bool) -> usize {
        self.nodes.iter().filter(|n| pred(n.op)).count()
    }

    /// Nodes that have at least one *intra-iteration* predecessor.
    pub fn has_intra_pred(&self, n: NodeId) -> bool {
        self.pred_edges(n).any(|(_, e)| e.distance == 0)
    }

    /// A short multi-line summary for logs.
    pub fn summary(&self) -> String {
        let mem = self.count_ops(|o| o.is_memory());
        let alu = self.count_ops(|o| o.resource_class() == crate::op::ResourceClass::Alu);
        let carried = self.edges.iter().filter(|e| e.is_loop_carried()).count();
        format!(
            "DDG: {} nodes ({alu} ALU, {mem} mem), {} edges ({carried} loop-carried)",
            self.num_nodes(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Opcode;

    fn diamond() -> (Ddg, [NodeId; 4]) {
        let mut g = Ddg::new();
        let a = g.add_node(Opcode::Load, Some("a".into()));
        let b = g.add_node(Opcode::Add, None);
        let c = g.add_node(Opcode::Mul, None);
        let d = g.add_node(Opcode::Store, None);
        g.add_edge(a, b, 8, 0);
        g.add_edge(a, c, 8, 0);
        g.add_edge(b, d, 1, 0);
        g.add_edge(c, d, 2, 0);
        (g, [a, b, c, d])
    }

    #[test]
    fn build_and_query_diamond() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.succs(a).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(g.preds(d).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(g.node(a).op, Opcode::Load);
        assert_eq!(g.node(a).name.as_deref(), Some("a"));
    }

    #[test]
    fn loop_carried_flag() {
        let mut g = Ddg::new();
        let x = g.add_node(Opcode::Add, None);
        let e0 = g.add_edge(x, x, 1, 1);
        assert!(g.edge(e0).is_loop_carried());
        let y = g.add_node(Opcode::Add, None);
        let e1 = g.add_edge(x, y, 1, 0);
        assert!(!g.edge(e1).is_loop_carried());
    }

    #[test]
    fn validate_rejects_inconsistent_structure() {
        let (g, [a, _, _, d]) = diamond();
        assert_eq!(g.validate(), Ok(()));

        let mut dangling = g.clone();
        dangling.edges[0].dst = NodeId(999);
        let err = dangling.validate().unwrap_err().to_string();
        assert!(err.contains("edge 0 (n0 -> n999)"), "{err}");

        let mut short = g.clone();
        short.preds.pop();
        assert!(short.validate().is_err());

        let mut unknown = g.clone();
        unknown.succs[a.index()].push(EdgeId(40));
        assert!(unknown.validate().is_err());

        let mut mismatched = g.clone();
        mismatched.preds[d.index()].push(EdgeId(0)); // a -> b, not into d
        assert!(mismatched.validate().is_err());

        let mut unlisted = g.clone();
        for row in &mut unlisted.succs {
            row.clear();
        }
        let err = unlisted.validate().unwrap_err().to_string();
        assert!(
            err.contains("malformed DDG: edge 0 (n0 -> n1) is listed 0 times in `succs` of n0"),
            "{err}"
        );

        let mut twice = g.clone();
        let first = twice.preds[d.index()][0];
        twice.preds[d.index()].push(first);
        let err = twice.validate().unwrap_err().to_string();
        assert!(err.contains("is listed 2 times in `preds` of n3"), "{err}");

        let mut heavy = g.clone();
        heavy.edges[0].latency = u32::MAX;
        let err = heavy.validate().unwrap_err().to_string();
        assert!(
            err.contains("edge 0 (n0 -> n1) has latency 4294967295"),
            "{err}"
        );

        let mut far = g.clone();
        far.edges[1].distance = MAX_EDGE_WEIGHT + 1;
        assert!(far.validate().is_err());

        let mut at_limit = g;
        at_limit.edges[0].latency = MAX_EDGE_WEIGHT;
        at_limit.edges[1].distance = MAX_EDGE_WEIGHT;
        assert_eq!(at_limit.validate(), Ok(()));

        // In-range edges whose latencies together pass the total bound.
        let mut long = Ddg::new();
        let x = long.add_node(Opcode::Add, None);
        let y = long.add_node(Opcode::Add, None);
        let edges = MAX_TOTAL_LATENCY / u64::from(MAX_EDGE_WEIGHT) + 1;
        for _ in 0..edges {
            long.add_edge(x, y, MAX_EDGE_WEIGHT, 0);
        }
        let err = long.validate().unwrap_err().to_string();
        assert!(err.contains("edge latencies sum to"), "{err}");
    }

    #[test]
    #[should_panic(expected = "unsatisfiable")]
    fn rejects_intra_iteration_self_loop() {
        let mut g = Ddg::new();
        let x = g.add_node(Opcode::Add, None);
        g.add_edge(x, x, 1, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_dangling_edge() {
        let mut g = Ddg::new();
        let x = g.add_node(Opcode::Add, None);
        g.add_edge(x, NodeId(7), 1, 0);
    }

    #[test]
    fn count_ops_by_class() {
        let (g, _) = diamond();
        assert_eq!(g.count_ops(|o| o.is_memory()), 2);
        assert_eq!(g.count_ops(|o| o == Opcode::Mul), 1);
    }

    #[test]
    fn summary_mentions_counts() {
        let (g, _) = diamond();
        let s = g.summary();
        assert!(s.contains("4 nodes"), "{s}");
        assert!(s.contains("4 edges"), "{s}");
    }

    #[test]
    fn has_intra_pred_distinguishes_carried_edges() {
        let mut g = Ddg::new();
        let a = g.add_node(Opcode::Add, None);
        let b = g.add_node(Opcode::Add, None);
        g.add_edge(a, b, 1, 1); // only loop-carried into b
        assert!(!g.has_intra_pred(b));
        g.add_edge(a, b, 1, 0);
        assert!(g.has_intra_pred(b));
    }
}
