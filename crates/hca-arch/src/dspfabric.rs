//! The hierarchical DSPFabric machine model (paper §2.2, Figure 2).
//!
//! The machine is a tree of *groups*. A group at depth `d` contains
//! `arity(d)` members; a member is itself a group one level down, except at
//! the deepest level where members are computation nodes (CNs). Members of
//! one group communicate through that group's MUX stage:
//!
//! * every member owns `out_wires` output wires — an output wire carries
//!   values produced inside the member and can be **broadcast** to any set of
//!   sibling members (and/or to one *glue-out* wire towards the parent);
//! * every member owns `in_wires` input ports — each port statically selects
//!   **one** source wire (a sibling's output wire or a glue-in wire coming
//!   down from the parent);
//! * `glue_in` / `glue_out` bound how many wires cross the group boundary
//!   (at the leaves, the crossbar accepts only K of the wires incoming from
//!   level 1 — the paper's `K` parameter).
//!
//! `DspFabric::standard(n, m, k)` builds the paper's 64-CN instance
//! (4 cluster-sets × 4 clusters × 4 CNs with MUX capacities N, M and a
//! crossbar intake of K; each CN has two incoming wires and one outgoing
//! wire).

use crate::dma::DmaModel;
use crate::resource::ResourceTable;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Flat identifier of a computation node, `0 .. num_cns()`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CnId(pub u32);

impl CnId {
    /// Usable as a plain array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cn{}", self.0)
    }
}

impl fmt::Display for CnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cn{}", self.0)
    }
}

/// Index path of a group in the hierarchy: `[]` is the root group (whose
/// members are the cluster sets), `[i]` the i-th cluster set, `[i, j]` the
/// j-th cluster of set i. A path of length `depth()` names a single CN.
pub type GroupPath = Vec<usize>;

/// Interconnect parameters of one hierarchy level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelSpec {
    /// Members per group at this level.
    pub arity: usize,
    /// Input ports per member (single-source each).
    pub in_wires: usize,
    /// Output wires per member (each broadcastable).
    pub out_wires: usize,
    /// Wires allowed to enter a group at this level from its parent.
    pub glue_in: usize,
    /// Wires allowed to leave a group at this level towards its parent.
    pub glue_out: usize,
}

/// The hierarchical machine.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DspFabric {
    /// One spec per level; `levels[0]` describes the root group of cluster
    /// sets, `levels.last()` describes the leaf groups of CNs.
    pub levels: Vec<LevelSpec>,
    /// Programmable DMA shared by all CNs.
    pub dma: DmaModel,
    /// Transport latency added to a value that crosses clusters, in cycles
    /// (cost of the `rcv` primitive path).
    pub copy_latency: u32,
}

impl DspFabric {
    /// The paper's 64-CN instance with MUX bandwidth parameters `n` (level 0),
    /// `m` (level 1) and `k` (crossbar intake at the leaves).
    pub fn standard(n: usize, m: usize, k: usize) -> Self {
        DspFabric {
            levels: vec![
                LevelSpec {
                    arity: 4,
                    in_wires: n,
                    out_wires: n,
                    glue_in: 0,
                    glue_out: 0,
                },
                LevelSpec {
                    arity: 4,
                    in_wires: m,
                    out_wires: m,
                    glue_in: n,
                    glue_out: n,
                },
                LevelSpec {
                    arity: 4,
                    in_wires: 2,
                    out_wires: 1,
                    glue_in: k,
                    glue_out: m,
                },
            ],
            dma: DmaModel::default(),
            copy_latency: 1,
        }
    }

    /// A machine from an explicit level stack (root first). The last level
    /// must describe the CN stage. Use for non-standard hierarchies — e.g.
    /// a four-level 256-CN fabric.
    pub fn custom(levels: Vec<LevelSpec>, dma: DmaModel, copy_latency: u32) -> Self {
        assert!(!levels.is_empty(), "a machine needs at least one level");
        assert_eq!(levels[0].glue_in, 0, "the root has no parent glue");
        assert_eq!(levels[0].glue_out, 0, "the root has no parent glue");
        DspFabric {
            levels,
            dma,
            copy_latency,
        }
    }

    /// Parse a compact machine description: `A×A×…@cap,cap,…` — arities per
    /// level and the per-level MUX capacity (the last level always gets the
    /// CN's 2-in/1-out wires; the listed capacity becomes its crossbar
    /// intake). Examples:
    ///
    /// * `"4x4x4@8,8,8"` — the paper's standard machine;
    /// * `"4x4@4,4"` — a two-level 16-CN fabric;
    /// * `"2x4x4x4@8,8,8,8"` — a four-level, 128-CN fabric.
    ///
    /// ```
    /// use hca_arch::DspFabric;
    /// let f = DspFabric::parse("4x4x4@8,8,8").unwrap();
    /// assert_eq!(f, DspFabric::standard(8, 8, 8));
    /// assert_eq!(DspFabric::parse("2x4x4x4@8,8,8,8").unwrap().num_cns(), 128);
    /// assert!(DspFabric::parse("not a machine").is_err());
    /// ```
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (shape, caps) = spec
            .split_once('@')
            .ok_or_else(|| format!("`{spec}`: expected ARITIES@CAPS"))?;
        let arities: Vec<usize> = shape
            .split(['x', '×'])
            .map(|p| p.trim().parse::<usize>().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("`{spec}`: bad arity ({e})"))?;
        let capacities: Vec<usize> = caps
            .split(',')
            .map(|p| p.trim().parse::<usize>().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("`{spec}`: bad capacity ({e})"))?;
        if arities.len() != capacities.len() {
            return Err(format!(
                "`{spec}`: {} arities but {} capacities",
                arities.len(),
                capacities.len()
            ));
        }
        if arities.is_empty() || arities.iter().any(|&a| a < 2) {
            return Err(format!("`{spec}`: every level needs arity ≥ 2"));
        }
        let depth = arities.len();
        let levels = arities
            .iter()
            .zip(&capacities)
            .enumerate()
            .map(|(d, (&arity, &cap))| {
                if d + 1 == depth {
                    // CN stage: two incoming wires, one outgoing, the listed
                    // capacity as the crossbar intake.
                    LevelSpec {
                        arity,
                        in_wires: 2,
                        out_wires: 1,
                        glue_in: cap,
                        glue_out: if d == 0 { 0 } else { capacities[d - 1] },
                    }
                } else {
                    LevelSpec {
                        arity,
                        in_wires: cap,
                        out_wires: cap,
                        glue_in: if d == 0 { 0 } else { capacities[d - 1] },
                        glue_out: if d == 0 { 0 } else { capacities[d - 1] },
                    }
                }
            })
            .collect();
        Ok(DspFabric::custom(levels, DmaModel::default(), 1))
    }

    /// A reduced two-level instance (useful for tests and small sweeps):
    /// `sets` groups of `cns` CNs with `cap` wires everywhere.
    pub fn two_level(sets: usize, cns: usize, cap: usize) -> Self {
        DspFabric {
            levels: vec![
                LevelSpec {
                    arity: sets,
                    in_wires: cap,
                    out_wires: cap,
                    glue_in: 0,
                    glue_out: 0,
                },
                LevelSpec {
                    arity: cns,
                    in_wires: 2,
                    out_wires: 1,
                    glue_in: cap,
                    glue_out: cap,
                },
            ],
            dma: DmaModel::default(),
            copy_latency: 1,
        }
    }

    /// Number of hierarchy levels (3 for the standard machine).
    #[inline]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Level spec at depth `d` (0 = root).
    #[inline]
    pub fn level(&self, d: usize) -> LevelSpec {
        self.levels[d]
    }

    /// Total number of computation nodes.
    pub fn num_cns(&self) -> usize {
        self.levels.iter().map(|l| l.arity).product()
    }

    /// Number of CNs inside one member of a group at depth `d`
    /// (16 at the root of the standard machine, 4 one level down, 1 at leaves).
    pub fn cns_per_member(&self, d: usize) -> usize {
        self.levels[d + 1..].iter().map(|l| l.arity).product()
    }

    /// Resource table of one member of a group at depth `d` — the union of
    /// the RTs of the CNs it embraces (paper §4.1, Figure 8).
    pub fn member_rt(&self, d: usize) -> ResourceTable {
        ResourceTable::of_cns(self.cns_per_member(d) as u32)
    }

    /// Decompose a flat CN id into its index path (one index per level).
    pub fn cn_path(&self, cn: CnId) -> GroupPath {
        let mut rem = cn.index();
        let mut path = vec![0usize; self.depth()];
        for d in (0..self.depth()).rev() {
            let a = self.levels[d].arity;
            path[d] = rem % a;
            rem /= a;
        }
        assert_eq!(rem, 0, "CN id {cn} out of range");
        path
    }

    /// Inverse of [`cn_path`](Self::cn_path).
    pub fn cn_of_path(&self, path: &[usize]) -> CnId {
        assert_eq!(path.len(), self.depth(), "path must reach a CN");
        let mut id = 0usize;
        for (d, &ix) in path.iter().enumerate() {
            let a = self.levels[d].arity;
            assert!(ix < a, "index {ix} exceeds arity {a} at depth {d}");
            id = id * a + ix;
        }
        CnId(id as u32)
    }

    /// All CN ids.
    pub fn cn_ids(&self) -> impl ExactSizeIterator<Item = CnId> + Clone + use<> {
        (0..self.num_cns() as u32).map(CnId)
    }

    /// All group paths at depth `d` (each addresses a group whose members sit
    /// at depth `d`; `d = 0` yields only the root `[]`).
    pub fn groups_at(&self, d: usize) -> Vec<GroupPath> {
        let mut out: Vec<GroupPath> = vec![vec![]];
        for lvl in 0..d {
            let a = self.levels[lvl].arity;
            let mut next = Vec::with_capacity(out.len() * a);
            for p in &out {
                for i in 0..a {
                    let mut q = p.clone();
                    q.push(i);
                    next.push(q);
                }
            }
            out = next;
        }
        out
    }

    /// Depth of the deepest common group of two CNs: the length of the
    /// longest common prefix of their paths. `0` means they only share the
    /// root group (they sit in different cluster sets).
    pub fn common_depth(&self, a: CnId, b: CnId) -> usize {
        let (pa, pb) = (self.cn_path(a), self.cn_path(b));
        pa.iter().zip(&pb).take_while(|(x, y)| x == y).count()
    }

    /// Number of parallel shortest paths between two CNs sitting across the
    /// level-0 MUXes of the standard machine — the paper's `K²M²N²` explosion
    /// argument (§4). Returns the product of squared capacities along the
    /// up-and-down path between the two CNs.
    pub fn parallel_shortest_paths(&self, a: CnId, b: CnId) -> u128 {
        let cd = self.common_depth(a, b);
        if cd == self.depth() {
            return 1; // same CN
        }
        let mut paths: u128 = 1;
        // Value leaves through each boundary (glue_out below the meeting
        // level) and re-enters through the corresponding glue_in stages.
        for d in cd + 1..self.depth() {
            let l = self.levels[d];
            paths = paths.saturating_mul((l.glue_out as u128).max(1));
            paths = paths.saturating_mul((l.glue_in as u128).max(1));
        }
        // Crossing the meeting group itself: out_wires × in_wires choices.
        let l = self.levels[cd];
        paths = paths.saturating_mul((l.out_wires as u128).max(1));
        paths = paths.saturating_mul((l.in_wires as u128).max(1));
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_machine_has_64_cns() {
        let f = DspFabric::standard(8, 8, 8);
        assert_eq!(f.num_cns(), 64);
        assert_eq!(f.depth(), 3);
        assert_eq!(f.cns_per_member(0), 16);
        assert_eq!(f.cns_per_member(1), 4);
        assert_eq!(f.cns_per_member(2), 1);
    }

    #[test]
    fn member_rts_match_figure8() {
        // Fig. 8: PG0 nodes hold 16 ALUs/AGs, PG0,i hold 4, PG0,i,j hold 1.
        let f = DspFabric::standard(4, 4, 4);
        assert_eq!(f.member_rt(0), ResourceTable::of_cns(16));
        assert_eq!(f.member_rt(1), ResourceTable::of_cns(4));
        assert_eq!(f.member_rt(2), ResourceTable::CN);
    }

    #[test]
    fn path_roundtrip() {
        let f = DspFabric::standard(8, 8, 8);
        for cn in f.cn_ids() {
            let p = f.cn_path(cn);
            assert_eq!(p.len(), 3);
            assert_eq!(f.cn_of_path(&p), cn);
        }
        assert_eq!(f.cn_path(CnId(0)), vec![0, 0, 0]);
        assert_eq!(f.cn_path(CnId(63)), vec![3, 3, 3]);
        assert_eq!(f.cn_path(CnId(21)), vec![1, 1, 1]);
    }

    #[test]
    fn groups_at_counts() {
        let f = DspFabric::standard(8, 8, 8);
        assert_eq!(f.groups_at(0), vec![Vec::<usize>::new()]);
        assert_eq!(f.groups_at(1).len(), 4);
        assert_eq!(f.groups_at(2).len(), 16);
    }

    #[test]
    fn common_depth_examples() {
        let f = DspFabric::standard(8, 8, 8);
        let a = f.cn_of_path(&[0, 0, 0]);
        let b = f.cn_of_path(&[0, 0, 1]);
        let c = f.cn_of_path(&[0, 1, 0]);
        let d = f.cn_of_path(&[3, 0, 0]);
        assert_eq!(f.common_depth(a, b), 2);
        assert_eq!(f.common_depth(a, c), 1);
        assert_eq!(f.common_depth(a, d), 0);
        assert_eq!(f.common_depth(a, a), 3);
    }

    #[test]
    fn path_explosion_matches_paper_formula() {
        // Two CNs at different sides of level-0 MUXes: K²M²N² shortest paths.
        let f = DspFabric::standard(8, 8, 8);
        let a = f.cn_of_path(&[0, 0, 0]);
        let b = f.cn_of_path(&[1, 0, 0]);
        let expect = 8u128 * 8 * 8 * 8 * 8 * 8; // N·N · N(glue_out lvl1)·... see below
                                                // With standard(n,m,k): crossing root: out·in = n²; level-1 boundary:
                                                // glue_out(=n)·glue_in(=n) — wait, glue at level 1 is n, at leaves
                                                // glue_in=k, glue_out=m. Total = n² · (n·n) · (m·k).
        let got = f.parallel_shortest_paths(a, b);
        assert_eq!(got, 8u128.pow(4) * 8 * 8);
        assert_eq!(got, expect);
        assert_eq!(f.parallel_shortest_paths(a, a), 1);
    }

    #[test]
    fn two_level_machine() {
        let f = DspFabric::two_level(4, 4, 4);
        assert_eq!(f.num_cns(), 16);
        assert_eq!(f.depth(), 2);
        assert_eq!(f.member_rt(0), ResourceTable::of_cns(4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cn_path_rejects_out_of_range() {
        let f = DspFabric::two_level(2, 2, 2);
        f.cn_path(CnId(4));
    }

    #[test]
    fn parse_standard_machine() {
        let f = DspFabric::parse("4x4x4@8,8,8").unwrap();
        assert_eq!(f, DspFabric::standard(8, 8, 8));
        // Unicode × accepted too.
        assert_eq!(DspFabric::parse("4×4×4@8,8,8").unwrap(), f);
    }

    #[test]
    fn parse_custom_depths() {
        let two = DspFabric::parse("4x4@4,4").unwrap();
        assert_eq!(two.depth(), 2);
        assert_eq!(two.num_cns(), 16);
        let four = DspFabric::parse("2x4x4x4@8,8,8,8").unwrap();
        assert_eq!(four.depth(), 4);
        assert_eq!(four.num_cns(), 128);
        // CN stage always 2-in/1-out.
        let leaf = four.level(3);
        assert_eq!((leaf.in_wires, leaf.out_wires), (2, 1));
        assert_eq!(leaf.glue_in, 8);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(DspFabric::parse("4x4x4").is_err()); // no capacities
        assert!(DspFabric::parse("4x4@8").is_err()); // count mismatch
        assert!(DspFabric::parse("4x1@8,8").is_err()); // arity < 2
        assert!(DspFabric::parse("@8").is_err());
        assert!(DspFabric::parse("axb@8,8").is_err());
    }
}
